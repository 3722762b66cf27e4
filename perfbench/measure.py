"""Measurement helpers shared by the workloads.

Everything here watches the package from outside: a one-way function
wrapper that counts and times hashes, an in-memory span recorder, an
independent chain checker built on hashlib, percentile summaries and the
run metadata.
"""

import bisect
import gzip
import hashlib
import os
import platform
import subprocess
import sys
from array import array
from pathlib import Path
from statistics import median
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import chainpebble  # noqa: E402
from chainpebble import Owf, builtin, evaluate  # noqa: E402

if Path(chainpebble.__file__).resolve().parent != SRC / "chainpebble":
    # measure the checkout's sources, never an installed copy
    raise ImportError(f"chainpebble was imported from {chainpebble.__file__}, not {SRC}")

MD5 = builtin("md5")
KIB = 1024.0


def md5(v: bytes) -> bytes:
    return hashlib.md5(v).digest()


def chain_endpoint(seed: bytes, n: int) -> bytes:
    """f^n(seed) for md5, computed without the package."""
    v = seed
    for _ in range(n):
        v = md5(v)
    return v


def chain_failures(values, seed: bytes, n: int) -> int:
    """Released values of a length-n chain that break the verifier's rule.

    One md5 of each value must give the previous value (the first must give
    f^n(seed)), and a complete release must end with the seed itself.
    """
    prev = chain_endpoint(seed, n)
    bad = 0
    for v in values:
        if md5(v) != prev:
            bad += 1
        prev = v
    if len(values) == n and values[-1] != seed:
        bad += 1
    return bad


class HashMeter:
    """Counts and times every call of a one-way function.

    ``owf`` is an ``Owf`` with the same name and width as the base one
    whose ``fn`` adds one call and its wall time to the meter.
    """

    def __init__(self, base: Owf):
        self.calls = 0
        self.ns = 0
        raw = base.fn

        def fn(x: bytes) -> bytes:
            t0 = perf_counter_ns()
            y = raw(x)
            self.ns += perf_counter_ns() - t0
            self.calls += 1
            return y

        self.owf = Owf(base.name, base.width, fn)


class Tracer:
    """Spans kept in flat arrays in memory and written out at the end.

    A span has a name, start and end (perf_counter ns), the span that
    caused it (-1 for none) and a session id.  Hash calls are too many to
    keep one span each (about 45 thousand per k=13 reversal), so every
    span also records the hashes and the hashing time the meter saw while
    it was open; self time subtracts those and the child spans.
    """

    def __init__(self, meter: HashMeter):
        self.meter = meter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.session = array("l")
        self.start = array("q")
        self.end = array("q")
        self.hashes = array("q")
        self.owf_ns = array("q")

    def open(self, name: str, parent: int = -1, session: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.session.append(session)
        self.end.append(0)
        self.hashes.append(self.meter.calls)
        self.owf_ns.append(self.meter.ns)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.hashes[i] = self.meter.calls - self.hashes[i]
        self.owf_ns[i] = self.meter.ns - self.owf_ns[i]

    def spans(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def durations(self, name: str) -> list[int]:
        start, end = self.start, self.end
        return [end[i] - start[i] for i in self.spans(name)]

    def self_times(self, name: str) -> list[int]:
        """Duration minus child spans and minus hashing not inside a child."""
        child_dur: dict[int, int] = {}
        child_owf: dict[int, int] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_dur[p] = child_dur.get(p, 0) + self.end[i] - self.start[i]
                child_owf[p] = child_owf.get(p, 0) + self.owf_ns[i]
        out = []
        for i in self.spans(name):
            own_owf = self.owf_ns[i] - child_owf.get(i, 0)
            out.append(self.end[i] - self.start[i] - child_dur.get(i, 0) - own_owf)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent,session,hashes,owf_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{i},{names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.session[i]},{self.hashes[i]},{self.owf_ns[i]}\n"
                )


def pct(sorted_ns, percent: int) -> int:
    """Nearest-rank percentile of a non-empty ascending sequence."""
    rank = max(1, -(-percent * len(sorted_ns) // 100))
    return sorted_ns[rank - 1]


def latency_summary(ns) -> dict:
    """p50, p99 and max in µs, with the sample count and how many lie past p99."""
    s = sorted(ns)
    p99 = pct(s, 99)
    return {
        "p50_us": pct(s, 50) / 1e3,
        "p99_us": p99 / 1e3,
        "max_us": s[-1] / 1e3,
        "samples": len(s),
        "beyond_p99": len(s) - bisect.bisect_right(s, p99),
    }


def best_profile(ns, positions, n: int) -> list[int]:
    """Each round position's fastest time over the run's repetitions.

    A round's work is fixed by its position in the chain (the schedule
    decides its hashes), so repeating the chain repeats the work.  A shared
    host (a 2-vCPU Xeon virtual machine, for one) can run 1.7x slower for
    stretches of milliseconds to seconds; such a stretch hits a position in
    some repetitions and not in others, so the best time per position keeps
    the program's cost, including every cost that recurs at that position,
    and drops the host's.  Positions never reached are left out.
    """
    best = [0] * n
    for t, p in zip(ns, positions):
        b = best[p]
        if b == 0 or t < b:
            best[p] = t
    return sorted(t for t in best if t)


def profile_summary(profile: list[int]) -> dict:
    """p50 and p99 (µs) over the positions of an ascending best profile."""
    return {"p50_us": pct(profile, 50) / 1e3, "p99_us": pct(profile, 99) / 1e3,
            "positions": len(profile)}


def calibrate(owf: Owf, calls: int = 20000, batches: int = 9) -> dict:
    """ns per call of the raw ``fn`` and of ``evaluate``, median over batches.

    Each batch chains the outputs (x = f(x)), so the loop's own cost is
    included in both numbers.
    """
    fn = owf.fn
    raw, wrapped = [], []
    x = bytes(owf.width)
    for _ in range(batches):
        t0 = perf_counter_ns()
        for _ in range(calls):
            x = fn(x)
        t1 = perf_counter_ns()
        for _ in range(calls):
            x = evaluate(owf, x)
        t2 = perf_counter_ns()
        raw.append((t1 - t0) / calls)
        wrapped.append((t2 - t1) / calls)
    return {"fn_ns": median(raw), "evaluate_ns": median(wrapped)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package sources, so results from a checkout that is
    not a git repository still name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "chainpebble").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
