"""Per-layer measurements that drive one package module directly.

``Prover`` binds its engine's ``step`` when it is constructed, so engine
spans cannot be taken through it.  These passes construct the engine
classes themselves, at the workload's family and k, three times each:

- a plain pass with the builtin md5, timing every step with bare clock
  reads (step latencies, overhead against the calibrated hash cost, hash
  and storage maxima);
- a traced pass through a ``HashMeter``, recording one span per step, for
  self time (step minus hashing);
- a ``tracemalloc`` pass, kept apart because tracing allocations slows the
  steppers several times over.
"""

import tracemalloc
from array import array
from time import perf_counter, perf_counter_ns

from measure import KIB, MD5, Tracer, chain_endpoint, chain_failures, latency_summary, median, pct

from chainpebble import InPlaceOptimal, InPlaceSpeed2, Pebbler, Verifier, make_schedule

def schedule_layer(family: str, k: int, repeats: int = 7) -> dict:
    """Time and size of one ``make_schedule(family, k)`` list."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        make_schedule(family, k)
        times.append(perf_counter() - t0)
    tracemalloc.start()
    try:
        make_schedule(family, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "schedule.make_schedule_ms": median(times) * 1e3,
        "schedule.make_schedule_kib": peak / KIB,
    }


def _occupied(slots) -> int:
    return sum(1 for v in slots if v is not None)


def inplace_layer(variant: str, k: int, rng, fn_ns: float, tracer: Tracer) -> tuple[dict, dict, dict]:
    """Metrics of one in-place stepper, its check counts and sample counts."""
    cls = InPlaceOptimal if variant == "optimal" else InPlaceSpeed2
    n = 1 << k
    checks = {"attempted": 0, "failed": 0}

    # plain pass
    seed = rng.randbytes(16)
    t0 = perf_counter()
    eng = cls(MD5, k, seed)
    init_s = perf_counter() - t0
    clock = perf_counter_ns
    step = eng.step
    durs = array("q")
    values = []
    total_hashes = hashes_max = 0
    slots_max = _occupied(eng.z)
    for _ in range(n):
        t0 = clock()
        v, h = step()
        durs.append(clock() - t0)
        values.append(v)
        total_hashes += h
        if h > hashes_max:
            hashes_max = h
        occ = _occupied(eng.z)
        if occ > slots_max:
            slots_max = occ
    checks["attempted"] += n
    checks["failed"] += chain_failures(values, seed, n)
    lat = latency_summary(durs)

    # traced pass
    seed = rng.randbytes(16)
    meter = tracer.meter
    root = tracer.open("inplace.init")
    eng = cls(meter.owf, k, seed)
    tracer.close(root)
    step = eng.step
    values = []
    for _ in range(n):
        s = tracer.open("inplace.step", session=root)
        v, _ = step()
        tracer.close(s)
        values.append(v)
    checks["attempted"] += n
    checks["failed"] += chain_failures(values, seed, n)
    self_ns = sorted(tracer.self_times("inplace.step"))

    # memory pass
    seed = rng.randbytes(16)
    tracemalloc.start()
    try:
        eng = cls(MD5, k, seed)
        peak_setup = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in range(n):
            eng.step()
        peak_reversal = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    metrics = {
        "inplace.init_s": init_s,
        "inplace.step_us_p50": lat["p50_us"],
        "inplace.step_us_p99": lat["p99_us"],
        "inplace.step_us_max": lat["max_us"],
        "inplace.self_us_p50": pct(self_ns, 50) / 1e3,
        "inplace.overhead_x": sum(durs) / (total_hashes * fn_ns),
        "inplace.hashes_max": hashes_max,
        "inplace.slots_max": slots_max,
        "inplace.peak_kib_setup": peak_setup / KIB,
        "inplace.peak_kib_reversal": peak_reversal / KIB,
    }
    return metrics, checks, {"inplace.step": lat["samples"]}


def pebbler_layer(family: str, k: int, rng, fn_ns: float, tracer: Tracer) -> tuple[dict, dict, dict]:
    """Metrics of the framework ``Pebbler``, its check counts and sample counts."""
    n = 1 << k
    checks = {"attempted": 0, "failed": 0}

    # plain pass: storage and live pebblers are read between steps, untimed
    seed = rng.randbytes(16)
    t0 = perf_counter()
    p = Pebbler(MD5, family, k, seed)
    for _ in range(n - 1):
        p.step()
    setup_s = perf_counter() - t0
    # set-up only ever adds values, so its storage peak is where it ends
    storage_max = p.storage()
    live_max = len(p.live_pebblers())
    clock = perf_counter_ns
    step = p.step
    durs = array("q")
    values = []
    total_hashes = hashes_max = 0
    for _ in range(n):
        t0 = clock()
        res = step()
        durs.append(clock() - t0)
        values.append(res.output)
        total_hashes += res.hashes
        if res.hashes > hashes_max:
            hashes_max = res.hashes
        storage_max = max(storage_max, p.storage())
        live_max = max(live_max, len(p.live_pebblers()))
    checks["attempted"] += n
    checks["failed"] += chain_failures(values, seed, n)
    lat = latency_summary(durs)

    # traced pass
    seed = rng.randbytes(16)
    meter = tracer.meter
    root = tracer.open("pebbler.setup")
    p = Pebbler(meter.owf, family, k, seed)
    for _ in range(n - 1):
        p.step()
    tracer.close(root)
    step = p.step
    values = []
    for _ in range(n):
        s = tracer.open("pebbler.step", session=root)
        res = step()
        tracer.close(s)
        values.append(res.output)
    checks["attempted"] += n
    checks["failed"] += chain_failures(values, seed, n)
    self_ns = sorted(tracer.self_times("pebbler.step"))

    # memory pass
    seed = rng.randbytes(16)
    tracemalloc.start()
    try:
        p = Pebbler(MD5, family, k, seed)
        for _ in range(p.lifetime):
            p.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    metrics = {
        "pebbler.setup_s": setup_s,
        "pebbler.step_us_p50": lat["p50_us"],
        "pebbler.step_us_p99": lat["p99_us"],
        "pebbler.self_us_p50": pct(self_ns, 50) / 1e3,
        "pebbler.overhead_x": sum(durs) / (total_hashes * fn_ns),
        "pebbler.hashes_max": hashes_max,
        "pebbler.storage_max": storage_max,
        "pebbler.live_max": live_max,
        "pebbler.peak_kib": peak / KIB,
    }
    return metrics, checks, {"pebbler.step": lat["samples"]}


def verifier_layer(chains, n: int) -> tuple[float, int]:
    """Median µs of one local ``Verifier.check`` over released chains, and
    how many honest values it rejected."""
    times = array("q")
    rejected = 0
    for seed, values in chains:
        verifier = Verifier(MD5, chain_endpoint(seed, n))
        check = verifier.check
        for v in values:
            t0 = perf_counter_ns()
            ok = check(v)
            times.append(perf_counter_ns() - t0)
            rejected += not ok
    return pct(sorted(times), 50) / 1e3, rejected
