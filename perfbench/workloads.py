"""The four workloads, their boxes, and the outputs pinned for each box.

Each workload has the same four steps:

- `prepare(runner)`: input generation (and, for tree-read, the build).  It
  is repeated and timed as `setup_s`.
- `expect(runner)`: reference values, computed once and off the clock.
- `run_pass(runner)`: the timed operations.  Every call into the package
  goes through `runner.call` with a check against an independent
  expectation.
- `headline(passes, wall_s)`: the workload's own end-to-end figures.

Pinned values (counts, byte sizes, sha256 digests) were taken from the
package at the commit that added this benchmark.  The reference functions at
the top of this file are the benchmark's own arithmetic, so they do not share
code with the package they check.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from harness import median, rss_bytes

# ---------------------------------------------------------------------------
# independent references


def orbit(x: int, max_steps: int | None = None, bound: int | None = None):
    """Forward odd-only orbit (values, exponents) of x down to 1.

    Returns None if it needs more than `max_steps` steps or passes `bound`.
    """
    values, exponents = [x], []
    while x != 1:
        if max_steps is not None and len(exponents) >= max_steps:
            return None
        t = 3 * x + 1
        a = (t & -t).bit_length() - 1
        x = t >> a
        if bound is not None and x > bound:
            return None
        values.append(x)
        exponents.append(a)
    return values, exponents


def children(u: int, count: int) -> list[int]:
    """v_n = (2^e u - 1) / 3 for n = 1..count, e = 2n (u = 1 mod 3) or 2n - 1."""
    shift = 0 if u % 3 == 1 else 1
    return [((1 << (2 * n - shift)) * u - 1) // 3 for n in range(1, count + 1)]


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def add(work: dict, key: str, amount) -> None:
    work[key] = work.get(key, 0) + amount


def note_report(work: dict, report) -> None:
    """Record a verify report's cases and its own elapsed time."""
    stats = report.statistics
    add(work, f"verify.{report.check_name}.cases", stats["cases"])
    add(work, f"verify.{report.check_name}.elapsed", stats.get("elapsed_s", 0.0))


def reports_check(expected):
    """Check a list of reports against pinned (check_name, cases, digest) triples."""
    def check(reports, work):
        got = [(r.check_name, r.statistics.get("cases"),
                sha256_json(r.as_dict(include_elapsed=False))) for r in reports]
        for r in reports:
            note_report(work, r)
        if any(not r.passed for r in reports):
            return f"report failed: {[r.counterexample for r in reports if not r.passed]}"
        return None if got == list(expected) else f"reports {got} != pinned {list(expected)}"
    return check


def coverage_check(covered: int, missing: int, missing_sha256: str):
    def check(report, work):
        add(work, "arbor.coverage.odd_values", (report.bound + 1) // 2)
        got = (report.covered_count, len(report.missing), sha256_json(list(report.missing)))
        want = (covered, missing, missing_sha256)
        return None if got == want else f"coverage {got} != pinned {want}"
    return check


def timed_build(runner, arbor, depth: int, bound: int, pinned: tuple[int, int, int]):
    """arbor.build through the runner, checked against the pinned (K, B, nodes).

    The tree must hold the box (K, B) it was asked for, reach depth K and
    store the pinned number of nodes.  The RSS growth of the first build in
    the process gives bytes per node.
    """
    k, b, nodes = pinned

    def check(tree, work):
        add(work, "arbor.build.nodes", len(tree))
        add(work, "arbor.build.levels", tree.max_depth + 1)
        got = (tree.config.max_depth, tree.config.value_bound, tree.max_depth, len(tree))
        return None if got == (k, b, k, nodes) else \
            f"tree (K, B, depth, nodes) {got} != pinned {(k, b, k, nodes)}"

    before = rss_bytes()
    tree = runner.call("arbor.build", arbor.build,
                       arbor.TruncationConfig(max_depth=depth, value_bound=bound), check=check)
    if tree is not None and runner.first_build is None:
        runner.first_build = (rss_bytes() - before, len(tree))
    return tree


class HashSink:
    """Binary sink that keeps only the byte count and the sha256."""

    def __init__(self) -> None:
        self.size = 0
        self.digest = hashlib.sha256()

    def write(self, data: bytes) -> int:
        self.size += len(data)
        self.digest.update(data)
        return len(data)


# ---------------------------------------------------------------------------
# completeness


@dataclass(frozen=True)
class CompletenessBox:
    sweep_bound: int
    max_odd_steps: int  # K, pinned
    max_excursion: int  # B, pinned
    nodes: int
    convergence_bound: int
    convergence: tuple  # pinned (check_name, cases, digest)


class Completeness:
    """Criterion 10: forward sweep -> oracle box (K, B) -> build -> coverage -> convergence.

    The inputs are fixed by the criterion; the seed is recorded but unused.
    """

    name = "completeness"

    def __init__(self, pkg, box: CompletenessBox, seed: int, env: dict, root: str) -> None:
        self.pkg, self.box = pkg, box

    def prepare(self, runner) -> None:
        self.starts = range(1, self.box.sweep_bound + 1, 2)

    def expect(self, runner) -> None:
        self.reference = {}
        for x in self.starts:
            values, _ = orbit(x)
            self.reference[x] = (len(values) - 1, max(values))

    def _summary_ok(self, s, work):
        want = self.reference[s.start]
        return None if (s.length, s.peak, s.converged) == (*want, True) else \
            f"summary of {s.start}: {(s.length, s.peak, s.converged)} != {want}"

    def run_pass(self, runner) -> None:
        forward, arbor, verify = self.pkg.forward, self.pkg.arbor, self.pkg.verify
        box = self.box
        k, b = 0, 1
        for x in self.starts:
            s = runner.call("forward.trajectory_summary", forward.trajectory_summary, x,
                            check=self._summary_ok)
            if s is not None:
                k, b = max(k, s.length), max(b, s.peak)
        # the oracle box (K, B) comes from the sweep; the build's check pins it
        tree = timed_build(runner, arbor, k, b,
                           (box.max_odd_steps, box.max_excursion, box.nodes))
        runner.call("arbor.coverage", arbor.coverage, tree, box.sweep_bound,
                    check=coverage_check((box.sweep_bound + 1) // 2, 0, sha256_json([])))
        runner.call("verify.check_convergence",
                    lambda: [verify.check_convergence(box.convergence_bound)],
                    check=reports_check([box.convergence]))

    def headline(self, passes, wall_s) -> dict:
        return {"nodes_per_s": self.box.nodes / wall_s}


# ---------------------------------------------------------------------------
# tree-read


@dataclass(frozen=True)
class TreeReadBox:
    max_depth: int
    value_bound: int
    nodes: int
    exports: tuple  # pinned (format, bytes, sha256)
    coverage_bound: int
    covered: int
    missing: int
    missing_sha256: str
    sample: int


class TreeRead:
    """Read a tree built in setup: three exports, a coverage report, paths and edges."""

    name = "tree-read"

    def __init__(self, pkg, box: TreeReadBox, seed: int, env: dict, root: str) -> None:
        self.pkg, self.box, self.seed = pkg, box, seed

    def prepare(self, runner) -> None:
        arbor, box = self.pkg.arbor, self.box
        self.tree = None  # free the previous repetition's tree before building
        self.tree = timed_build(runner, arbor, box.max_depth, box.value_bound,
                                (box.max_depth, box.value_bound, box.nodes))
        # Stored vertices are exactly the odd values whose forward orbit stays
        # inside the box, so the sample is drawn without reading the tree.
        rng = random.Random(f"tree-read:{self.seed}")
        self.sample = []
        while len(self.sample) < box.sample:
            v = 2 * rng.randrange(1, (box.value_bound + 1) // 2) + 1
            path = orbit(v, box.max_depth, box.value_bound)
            if path is not None:
                self.sample.append((v, path[0][::-1]))

    def expect(self, runner) -> None:
        pass

    def _export_check(self, sink: HashSink, fmt: str, size: int, digest: str):
        def check(_, work):
            add(work, f"arbor.export.{fmt}.bytes", sink.size)
            got = (sink.size, sink.digest.hexdigest())
            return None if got == (size, digest) else f"{fmt} export {got} != pinned"
        return check

    def run_pass(self, runner) -> None:
        arbor, box, tree = self.pkg.arbor, self.box, self.tree
        for fmt, size, digest in box.exports:
            sink = HashSink()
            runner.call(f"arbor.export.{fmt}", arbor.export, tree, fmt, sink,
                        check=self._export_check(sink, fmt, size, digest))
        runner.call("arbor.coverage", arbor.coverage, tree, box.coverage_bound,
                    check=coverage_check(box.covered, box.missing, box.missing_sha256))
        for v, path in self.sample:
            runner.call("arbor.path_to", arbor.path_to, tree, v,
                        check=lambda got, work, want=path: None if got == want else
                        f"path_to({want[-1]}) = {got} != {want}")
        for v, path in self.sample:
            parent = path[-2]
            want = "ascending" if v > parent else "descending"
            runner.call("arbor.classify_edge", arbor.classify_edge, parent, v,
                        check=lambda got, work, want=want: None if got == want else
                        f"classify_edge gave {got}, expected {want}")

    def headline(self, passes, wall_s) -> dict:
        per_pass = []
        for g in passes:
            spent = sum(sum(g.durations[f"arbor.export.{fmt}"]) for fmt, _, _ in self.box.exports)
            per_pass.append(sum(size for _, size, _ in self.box.exports) / spent / 1e6)
        return {"export_mb_per_s": median(per_pass)}


# ---------------------------------------------------------------------------
# verify


SUITES = ("residue-cycle", "multiples", "closed-forms", "adjacent-initials", "gaps",
          "collision", "uniqueness", "covering", "partition", "convergence")


@dataclass(frozen=True)
class VerifyBox:
    suite_kwargs: tuple  # keyword arguments for run_suite
    reports: tuple  # per suite: pinned ((check_name, cases, digest), ...)
    parents: int
    parent_bits: int
    children: int
    starts: int
    start_bits: int
    base_count: int


class Verify:
    """Every verify suite on its default box, plus seeded big-integer identities."""

    name = "verify"

    def __init__(self, pkg, box: VerifyBox, seed: int, env: dict, root: str) -> None:
        self.pkg, self.box, self.seed = pkg, box, seed

    def prepare(self, runner) -> None:
        box = self.box
        rng = random.Random(f"verify:{self.seed}")
        self.parents = []
        while len(self.parents) < box.parents:
            u = rng.getrandbits(box.parent_bits) | 1 | (1 << (box.parent_bits - 1))
            if u % 3:
                self.parents.append(u)
        self.starts = [rng.getrandbits(box.start_bits) | 1 | (1 << (box.start_bits - 1))
                       for _ in range(box.starts)]

    def expect(self, runner) -> None:
        box = self.box
        self.children = {u: children(u, box.children) for u in self.parents}
        self.orbits = {x: orbit(x) for x in self.starts}
        z = [(4 ** n - 1) // 3 for n in range(1, box.base_count + 1)]
        self.base = ({n: z[n - 1] for n in range(1, box.base_count + 1)},
                     {n: z[n - 1] // 3 for n in range(1, box.base_count + 1)})

    def run_pass(self, runner) -> None:
        core, inverse, forward, verify = (self.pkg.core, self.pkg.inverse,
                                          self.pkg.forward, self.pkg.verify)
        box = self.box
        kwargs = dict(box.suite_kwargs)
        for suite, expected in zip(SUITES, box.reports):
            runner.call(f"verify.{suite}", lambda s=suite: verify.run_suite(s, **kwargs),
                        check=reports_check(expected))
        runner.call("core.base_sequences", core.base_sequences, box.base_count,
                    check=lambda got, work: None if (got.z, got.w) == self.base
                    else "base_sequences differ from (4^n - 1) / 3 and its multiple")
        count = box.children
        for u in self.parents:
            want = self.children[u]
            runner.call("verify.check_closed_forms", verify.check_closed_forms, u, count,
                        check=self._passed(count))
            runner.call("verify.check_multiples", verify.check_multiples, u, count,
                        check=self._passed(count))
            for n in range(1, count + 1):
                runner.call("inverse.branch_forms", inverse.branch_forms, u, n,
                            check=lambda got, work, v=want[n - 1]:
                            None if set(got.values()) == {v} else f"branch_forms {got} != {v}")
            runner.call("inverse.siblings", lambda u=u: inverse.siblings(u, count=count).values(),
                        check=lambda got, work, want=want: self._siblings_ok(got, work, want))
        for x in self.starts:
            runner.call("forward.trajectory", forward.trajectory, x,
                        check=lambda got, work, want=self.orbits[x]:
                        self._trajectory_ok(got, work, want))

    @staticmethod
    def _passed(count: int):
        def check(report, work):
            ok = report.passed and report.statistics.get("cases") == count
            return None if ok else f"{report.check_name}: {report.as_dict(include_elapsed=False)}"
        return check

    @staticmethod
    def _siblings_ok(got, work, want):
        add(work, "inverse.siblings.children", len(got))
        return None if got == want else "siblings differ from (2^e u - 1) / 3"

    @staticmethod
    def _trajectory_ok(record, work, want):
        add(work, "forward.trajectory.steps", record.length)
        got = (list(record.values), list(record.exponents), record.converged)
        return None if got == (*want, True) else f"trajectory of {record.start} differs"

    def headline(self, passes, wall_s) -> dict:
        cases = [sum(v for k, v in g.work.items() if k.startswith("verify.") and
                     k.endswith(".cases")) for g in passes]
        return {"cases_per_s": median(cases) / wall_s}


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliBox:
    tree: tuple  # arguments after "tree"
    cover: tuple  # arguments after "cover"
    verify_parent_bound: tuple  # seeded --parent-bound is drawn from this range


COMMANDS = ("trajectory", "siblings", "tree", "verify", "cover")


class Cli:
    """Sequential `python -m collatz_arbor.cli` processes, checked against main() in-process."""

    name = "cli"

    def __init__(self, pkg, box: CliBox, seed: int, env: dict, root: str) -> None:
        self.pkg, self.box, self.seed, self.env, self.root = pkg, box, seed, env, root

    def prepare(self, runner) -> None:
        rng = random.Random(f"cli:{self.seed}")
        x = 2 * rng.getrandbits(63) + 3
        u = 3
        while u % 3 == 0:
            u = 2 * rng.getrandbits(31) + 5
        lo, hi = self.box.verify_parent_bound
        self.argv = {
            "trajectory": ["trajectory", str(x)],
            "siblings": ["siblings", str(u), "--count", "32"],
            "tree": ["tree", *self.box.tree],
            "verify": ["verify", "--suite", "lemma1", "--parent-bound",
                       str(rng.randrange(lo, hi)), "--count", "16", "--output", "json"],
            "cover": ["cover", *self.box.cover, "--output", "json"],
        }

    def _in_process(self, argv):
        raw = io.BytesIO()
        text = io.TextIOWrapper(raw, encoding="utf-8", newline="\n", write_through=True)
        with redirect_stdout(text), redirect_stderr(io.StringIO()):
            code = self.pkg.cli.main(list(argv))
        text.flush()
        return code, raw.getvalue()

    def expect(self, runner) -> None:
        self.expected = {}
        for command in COMMANDS:
            self.expected[command] = runner.call("cli.main", self._in_process,
                                                 self.argv[command])

    def _subprocess(self, runner, argv):
        with runner.child_running():
            done = subprocess.run([sys.executable, "-m", "collatz_arbor.cli", *argv],
                                  env=self.env, cwd=self.root, capture_output=True, timeout=120)
        return done.returncode, done.stdout

    def run_pass(self, runner) -> None:
        for command in COMMANDS:
            want = self.expected[command]
            runner.call(f"cli.{command}", self._subprocess, runner, self.argv[command],
                        check=lambda got, work, want=want, c=command:
                        None if want is not None and got == want and got[0] == 0 and got[1]
                        else f"{c}: exit {got[0]}, {len(got[1])} bytes differ from main()")

    def headline(self, passes, wall_s) -> dict:
        ms = sorted(d * 1000.0 for g in passes for c in COMMANDS for d in g.durations[f"cli.{c}"])
        out = {"cli_samples": len(ms), "cli_p50_ms": median(ms)}
        # the highest percentile with at least ten samples beyond it
        for q in (99, 90, 75):
            if len(ms) * (100 - q) / 100 >= 10:
                out[f"cli_p{q}_ms"] = ms[min(len(ms) - 1, int(len(ms) * q / 100))]
                break
        return out


# ---------------------------------------------------------------------------
# boxes: FULL is the benchmark; TINY is for the harness self-test


# The box of each workload, with its pinned outputs.
FULL = {
    "completeness": CompletenessBox(
        sweep_bound=10**4, max_odd_steps=96, max_excursion=9038141, nodes=2631520,
        convergence_bound=10**4,
        convergence=("convergence", 5000, "adb87a51ea3c6a5092910f4bc973e185eebcad9fe4a9dcbdd3307f006e0c398f")),
    "tree-read": TreeReadBox(
        max_depth=40, value_bound=2 * 10**6, nodes=298358,
        exports=(
                 ("jsonl", 30063833, "7535fe3f200476be979b94cd4958b3c85ba4704a603c8143499ea2b143a93c68"),
                 ("csv", 7985382, "4ac37e0104c2dd2469d9d0d7f557401ba6f56bf8ae88e3118a3aa22c341a9060"),
                 ("dot", 11437487, "b3cbc3ddec99513bf170695ca48b33bab6f47f9e7640841fd7dae7cc44acf075"),
        ),
        coverage_bound=5 * 10**5, covered=117839, missing=132161,
        missing_sha256="6ae0c01564d39592c3d3cd1c2d9b285f2fcdf09d3acc7d9fed811c06f32b2ef2",
        sample=2000),
    "verify": VerifyBox(
        suite_kwargs=(("convergence_bound", 10**5),),
        reports=(
            (("residue_cycle", 213312, "bdc758f51c195fdd03eb3e0ebef66dfc298e1b91cc46f1a9fdf4d5fe117b259e"),),
            (("multiples", 213312, "fc859285bb39ac405339df3cf1f799c19b75aff56099b8dca6b404aaa6894df0"),),
            (("closed_forms", 213312, "3926ef64cc64e85e8bc6a27a9a4f7bea31ffb6d5db0962af282146e1a433aae3"),),
            (("adjacent_initials", 1667, "2d709904959449502c4e27af3080384103ee32773d92501dbdc3b3da7ebf2669"),),
            (("sibling_gaps", 213312, "3634f152676b91f133ab5b796613174fb3fd6c06f788481879d9f1461779974b"),),
            (("collision_parity", 128000, "84bff273723f0c2434be307214190821cab1ec058035e325a045d7ff86b7baac"),),
            (("uniqueness", 1059, "9e5622306aa3fcf081d50abc0a645d143d7ff34756eb160eb2865ff069607d5a"), ("parent_pointers", 1059, "2afae8c51cee24dc78fa32a3331da6d35f3c3db61739bd657a00a63106c47f64"),),
            (("covering_templates", 26664, "ca2a196b1c6115d313c0c2abf5c603e49a1ae522a98179309e749d8273844902"), ("covering_patterns", 1059, "d66d0291875cb3cc924911365d2ce718f62ea7f4e2bd82827124fb7697164a6a"),),
            (("initial_vertex_partition", 3333, "c82ff648435fc6f3efe2fec7de1780486a4b29fa3177b015122c1d79c9016b1c"),),
            (("convergence", 50000, "a15c81230fd0554d5070e397a5c801558ab7b57623a94d1ad9e29ffdb32f5af3"),),
        ),
        parents=128, parent_bits=256, children=64,
        starts=128, start_bits=512, base_count=512),
    "cli": CliBox(tree=("--depth", "6", "--bound", "10000"),
                  cover=("--bound", "10000", "--depth", "30"),
                  verify_parent_bound=(500, 1000)),
}


TINY = {
    "completeness": CompletenessBox(
        sweep_bound=31, max_odd_steps=41, max_excursion=3077, nodes=776,
        convergence_bound=31,
        convergence=("convergence", 16, "be7422a5dded84aed28e79fd01f3a15840b37945252337d3f891e01539b01ab6")),
    "tree-read": TreeReadBox(
        max_depth=12, value_bound=10000, nodes=804,
        exports=(
                 ("jsonl", 76513, "3904dd0c3f4150e299b61dc355981f419348d10757d498da75d915db7738571d"),
                 ("csv", 17058, "3c3a6d9b87998a8904ea5ec0566a262736fb17d1b55341f70eb49529edac137f"),
                 ("dot", 24888, "c39ff496b6d99f397497ff4206779dc533696a38487d922ea6752dc2baea9fb0"),
        ),
        coverage_bound=2001, covered=323, missing=678,
        missing_sha256="a5bfd5e31b896239c99a4270d2ca87cc9c255ae0678504bfa6a75b83fe442b5f",
        sample=50),
    "verify": VerifyBox(
        suite_kwargs=(("parent_bound", 100), ("count", 8), ("max_d", 4), ("partners", 10), ("tree_depth", 4), ("tree_bound", 10000), ("convergence_bound", 1001)),
        reports=(
            (("residue_cycle", 264, "2496b58be5c83ce0029eb3834979c064c2e21f70a44bd5f1750a8ad7de2a9abb"),),
            (("multiples", 264, "c8a28198b2e179a761f6f429c36e39b08ddab4c2cb76dc4ed39dcc3e12e551cd"),),
            (("closed_forms", 264, "f29035ef2fc6b99a1c14259712bd92342b89fb1a35e02baeb139bfbcfdb3b88b"),),
            (("adjacent_initials", 17, "3f7b09f1e47b29fe9e51ccda30417c032c682ac312391c2c09f01505505c0a72"),),
            (("sibling_gaps", 264, "f220b66f67cdcbdec36ae956085e594cb58bcc38ad2767279ab9adbd4866dd81"),),
            (("collision_parity", 80, "9afab73f385fe6bde5d86c4d20cbca147ca7d379817f364e2d522d5af141cff8"),),
            (("uniqueness", 83, "85c73dad6ab54b0331c7123b558eb563a9d6ad21fbafec362eb2ffe6fd841b92"), ("parent_pointers", 83, "c16b30fe2e074d832a04f6423682dfb67bd9a75d6ccf0491a56d935d47451441"),),
            (("covering_templates", 264, "ce90047a8d96a96192094f0f6609a1bed79f22ef1c4990c247181f8f65bc8489"), ("covering_patterns", 83, "e12f5181c267c75aeccdc110a5ab45b717226ba26bdcb8e15fbcd91cc557ee72"),),
            (("initial_vertex_partition", 33, "8c22570ad38f04abcf47582010d1899f9b0941d86b6488faac34b8a2e05c906f"),),
            (("convergence", 501, "38e90fa79e46103885aff0e8db7e78d9cdab5d5e3d051776ef87cb44e998602c"),),
        ),
        parents=4, parent_bits=64, children=8,
        starts=4, start_bits=64, base_count=16),
    "cli": CliBox(tree=("--depth", "3", "--bound", "100"),
                  cover=("--bound", "100", "--depth", "10"),
                  verify_parent_bound=(20, 40)),
}

WORKLOADS = {w.name: w for w in (Completeness, TreeRead, Verify, Cli)}
