"""Call accounting, span tracing and the timing loop shared by every workload.

Every call the benchmark makes into the package goes through `Runner.call`.
The runner times it, counts it against its layer (the module the function
lives in), and queues its output check, which runs after the pass's clock
has stopped.  With tracing on it also records a span: name, start, end,
parent span and run id.  Spans stay in memory and are written out when the
run ends.

On a shared host the CPU speed can drift by tens of percent within
seconds, so every set-up and pass also samples it: every SAMPLE_EVERY_S a
timer signal interrupts the work and times a fixed probe loop of the
benchmark's own.  All times, spans included, are read from `Runner.clock`,
which leaves out the time the samples took.  `Group.scaled_wall` turns the
group's wall time into seconds at the speed where the probe takes
PROBE_REF_S.  The probe allocates nothing, so the package's heap does not
change its duration (`probe_check.py` tests this).
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("core", "forward", "inverse", "arbor", "verify", "cli")
MAX_FAILURES_KEPT = 20
SAMPLE_EVERY_S = 0.2
PROBE_STEPS = 50_000
PROBE_REF_S = 0.003  # the probe's duration at the reference speed

perf_counter = time.perf_counter


@dataclass
class Group:
    """One setup repetition, the reference calls, or one timed pass."""

    kind: str  # "setup", "expect" or "pass"
    traced: bool
    wall: float = 0.0  # on Runner.clock
    samples: list = field(default_factory=list)  # probe durations, s
    durations: dict = field(default_factory=lambda: defaultdict(list))  # call name -> [s]
    work: dict = field(default_factory=dict)  # "<call name>.<quantity>" -> number

    def scaled_wall(self) -> float:
        """Wall time at the reference speed of the probe."""
        return self.wall * PROBE_REF_S / median(self.samples)


@dataclass
class Span:
    """One call or group; start and end are on Runner.clock."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Runner:
    """Makes, times, counts and (optionally) traces the calls into the package."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.tracing = False
        self.groups: list[Group] = []
        self.spans: list[Span] = []
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.failures: list[tuple[str, str]] = []
        self.first_build: tuple[int, int] | None = None  # (RSS growth, nodes)
        self._pending: list = []
        self._group: Group | None = None
        self._open: list[int] = []
        self._ids = itertools.count()
        self._sampled = 0.0  # time spent in speed samples so far
        self._in_sample = False
        self._sampling = False

    def clock(self) -> float:
        """perf_counter without the time that speed samples have taken so far."""
        return perf_counter() - self._sampled

    @contextmanager
    def group(self, kind: str):
        g = Group(kind, self.tracing)
        self.groups.append(g)
        self._group = g
        sid = self._begin() if self.tracing else None
        start = self.clock()
        try:
            yield g
        finally:
            end = self.clock()
            g.wall = end - start
            if sid is not None:
                self._end(sid, kind, start, end)
            self._group = None

    def _begin(self) -> int:
        sid = next(self._ids)
        self._open.append(sid)
        return sid

    def _end(self, sid: int, name: str, start: float, end: float) -> None:
        self._open.pop()
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(sid, parent, name, start, end))

    def call(self, name: str, fn: Callable, *args, check: Callable | None = None):
        """Run one operation; return its value, or None if it raised.

        `check(value, work)` runs in `settle`, off the clock, and returns a
        failure reason or None; it may record work counts in `work`.
        """
        self.attempted[name.split(".", 1)[0]] += 1
        sid = self._begin() if self.tracing else None
        start = self.clock()
        try:
            value = fn(*args)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            value, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        end = self.clock()
        if sid is not None:
            self._end(sid, name, start, end)
        group = self._group
        group.durations[name].append(end - start)
        if error is not None:
            self.fail(name, error)
        elif check is not None:
            self._pending.append((name, value, check, group.work))
        return value

    def run_group(self, kind: str, body: Callable[[], None]) -> Group:
        """Run `body` as one group, sampling the speed in it at least once."""
        with self.sampling(), self.group(kind) as g:
            body()
            if not g.samples:
                self.sample()
        return g

    def sample(self, signum=None, frame=None) -> None:
        """Time the probe once; Runner.clock leaves its time out."""
        if self._in_sample:  # a late signal while the previous sample runs
            return
        self._in_sample = True
        start = perf_counter()
        spent = probe()
        if self._group is not None:
            self._group.samples.append(spent)
        self._sampled += perf_counter() - start
        self._in_sample = False

    @contextmanager
    def sampling(self):
        """Sample the speed every SAMPLE_EVERY_S, interrupting whatever runs."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._sampling = True
        try:
            yield
        finally:
            self._sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def child_running(self):
        """Pause sampling while a child process runs and sample once after it.

        A probe run while the benchmark waits would compete with the child
        for a CPU and measure that contention instead of the CPU's speed.
        """
        if not self._sampling:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def fail(self, name: str, reason: str) -> None:
        self.failed[name.split(".", 1)[0]] += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append((name, reason[:300]))

    def settle(self) -> None:
        """Run the queued output checks; a check that raises is a failure."""
        pending, self._pending = self._pending, []
        for name, value, check, work in pending:
            try:
                reason = check(value, work)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.fail(name, reason)

    def passes(self, traced: bool) -> list[Group]:
        return [g for g in self.groups if g.kind == "pass" and g.traced == traced]


def measure(workload, runner: Runner, seconds: float, trace: bool) -> None:
    """Closed loop with one client: run passes back to back for `seconds`.

    A pass starts only if the previous one suggests it ends in time; at
    least one pass always runs.  With `trace`, passes alternate between
    untraced and traced, starting untraced, so that both kinds meet the same
    machine speed; at least one of each runs.
    """
    t0 = perf_counter()
    last, done = 0.0, 0
    while done < 1 + trace or perf_counter() - t0 + last <= seconds:
        lap = perf_counter()
        gc.collect()
        runner.tracing = trace and done % 2 == 1
        runner.run_group("pass", lambda: workload.run_pass(runner))
        runner.settle()
        last, done = perf_counter() - lap, done + 1
    runner.tracing = False


_PERM = random.Random(0).sample(range(256), 256)


def probe() -> float:
    """Duration of a fixed loop of the benchmark's own that allocates nothing.

    Every value it touches is a cached small int or an item of `_PERM`, so
    the duration reflects the CPU's speed, not the state of the heap.
    """
    perm, x, y = _PERM, 0, 0
    start = perf_counter()
    for _ in itertools.repeat(None, PROBE_STEPS):
        x = perm[x ^ y]
        y = perm[y] ^ (x & 15)
    return perf_counter() - start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def bare_python_ms(env: dict, repeat: int) -> list[float]:
    """Wall times of fresh interpreters that do nothing, in milliseconds."""
    out = []
    for _ in range(repeat):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        out.append((perf_counter() - start) * 1000.0)
    return out


IMPORT_PROBE = ("import time; t = time.perf_counter(); import collatz_arbor.cli; "
                "print(time.perf_counter() - t)")


def import_seconds(env: dict) -> float:
    """Time a fresh interpreter takes to import the package (all six modules).

    The result is scaled to the reference speed by probes taken just before
    and just after the child, not while it runs.
    """
    before = probe()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    speed = (before + probe()) / 2
    return float(done.stdout) * PROBE_REF_S / speed
