"""Shared pieces of the benchmark: statistics, failure accounting,
memory readings, the machine fingerprint and what a timed phase
produced."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Traces and full result records; listed in the root .gitignore.
OUT_DIR = ROOT / ".perfbench"

# How many times set-up is repeated in one run; `setup_s` is the median.
SETUP_REPEATS = 5


def nproc() -> int:
    """Cores this process may run on: the cap on workers and
    connections for every workload."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (`pct` in 0-100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


@dataclass
class Tally:
    """Operations attempted and failed, by kind of operation, plus
    failures by cause (e.g. ``check:ServeError:overloaded``)."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    causes: dict[str, int] = field(default_factory=dict)

    def ok(self, kind: str, n: int = 1) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + n

    def fail(self, kind: str, cause: str, n: int = 1) -> None:
        self.ok(kind, n)
        self.failed[kind] = self.failed.get(kind, 0) + n
        key = f"{kind}:{cause}"
        self.causes[key] = self.causes.get(key, 0) + n

    def absorb(self, other: "Tally") -> None:
        for mine, theirs in (
            (self.attempted, other.attempted),
            (self.failed, other.failed),
            (self.causes, other.causes),
        ):
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + n

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def failed_frac(self) -> float:
        total = self.total_attempted
        return self.total_failed / total if total else 0.0

    def summary_dict(self) -> dict:
        return {
            "attempted": dict(sorted(self.attempted.items())),
            "failed": dict(sorted(self.failed.items())),
            "causes": dict(sorted(self.causes.items())),
            "failed_frac": self.failed_frac(),
        }


def own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def children_cpu_s() -> float:
    """CPU time of this process's reaped children (pool workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def pid_cpu_s(pid: int) -> float:
    """CPU time of a live process, from /proc (user + system)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_ticks() -> list[int]:
    """The machine-wide CPU tick counters (/proc/stat `cpu` line)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


def steal_frac(before: list[int], after: list[int]) -> float:
    """Share of the machine's CPU time the hypervisor took between two
    `host_ticks` readings."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def unstolen(cpu_s: float, before: list[int], after: list[int]) -> float:
    """`cpu_s` less the share the hypervisor stole over the same
    interval.  The guest's CPU-time accounting still charges a process
    for much of the time its vCPU was descheduled: over 20 serve runs
    on a 2-vCPU VM with 0-29% steal, checks per CPU-second spread 0.18
    (IQR/median) as reported and 0.08 after this correction."""
    return cpu_s * (1.0 - steal_frac(before, after))


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident memory among this process's reaped
    children (the fleet's pool workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live process, from /proc (VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def calibration_seconds(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop: divide a run's timings
    by it to compare results taken on different machines."""
    samples = []
    for _ in range(repeats):
        begun = time.perf_counter()
        acc = 0
        table = {}
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        samples.append(time.perf_counter() - begun)
    return median(samples)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read from `.git`
    directly; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(
            encoding="ascii"
        ).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Content hash of every program source file, which names the code
    under test even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": _git_commit(),
        "source_digest": source_digest(),
        "calibration_s": calibration_seconds(),
    }


@dataclass
class Measurement:
    """What one timed phase produced.

    Every workload reports figures taken over repeated units inside the
    phase (the median sweep, the median fleet call, medians over
    one-second windows of served checks), so a short stall of the
    machine moves one unit and not the figure.  `p50_ms` and `p99_ms` are the percentiles of a caller's
    wait for one result; a failed or refused request waits the whole
    phase, so it misses any latency limit.
    """

    throughput: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    read_p50_ms: float | None = None
    # Work per CPU-second of the processes doing it, and the share of
    # the machine's time stolen by the hypervisor during the phase.
    cpu_rate: float = 0.0
    steal_frac: float = 0.0
    units: int = 0
    tally: Tally = field(default_factory=Tally)
    peak_rss_mb: float = 0.0


def windowed(events: list[tuple[float, float]], begun: float, window_s: float):
    """(requests/s, p50 ms, p99 ms, windows): each figure is the median
    over the full `window_s` windows after `begun` of that window's
    figure; a window in which nothing completed counts as a rate of 0.
    `events` holds (completion time, wait in seconds) pairs."""
    buckets: dict[int, list[float]] = {}
    for ended, wait in events:
        buckets.setdefault(int((ended - begun) // window_s), []).append(wait)
    last = max(buckets)
    full = [buckets.get(number, []) for number in range(last)]
    if not full:  # shorter than two windows: the whole phase is one
        full = [buckets[last]]
        window_s = max(ended for ended, _ in events) - begun
    busy = [waits for waits in full if waits]
    return (
        median([len(waits) / window_s for waits in full]),
        median([percentile(waits, 50) for waits in busy]) * 1000.0,
        median([percentile(waits, 99) for waits in busy]) * 1000.0,
        len(full),
    )
