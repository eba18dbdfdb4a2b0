"""Self-test of the benchmark harness, on tiny boxes.

    python3 -m pytest -q perfbench/test_harness.py

Each workload runs end to end in-process on its tiny box, untraced and
traced; the metric names it prints must be exactly those `BENCHMARK.json`
declares.  A
deliberately wrong expectation must count as a failed operation: the run
still finishes and reports it, rather than passing or crashing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
from workloads import TINY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_metric_names_match_benchmark_json(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "FULL", TINY)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", trace])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


WRONG = {
    "completeness": lambda box: dataclasses.replace(box, max_excursion=box.max_excursion + 1),
    "tree-read": lambda box: dataclasses.replace(box, missing=box.missing + 1),
    "verify": lambda box: dataclasses.replace(
        box, reports=(((box.reports[0][0][0], box.reports[0][0][1] + 1,
                        box.reports[0][0][2]),),) + box.reports[1:]),
    # a command that exits non-zero is a failed operation too
    "cli": lambda box: dataclasses.replace(box, tree=("--depth", "not-a-number")),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_wrong_expectation_is_counted_as_failure(workload):
    pkg = run.load_package()
    box = WRONG[workload](TINY[workload])
    result, detail, _ = run.run(pkg, workload, box, seed=5, seconds=0.2, trace=False)
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert detail["failures"]
    assert detail["error_rate"] == result["failed"] / result["attempted"]


def test_exits_nonzero_without_the_package_source():
    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = _bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
