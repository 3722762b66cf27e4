"""The reverse-* workloads: one caller releasing whole chains through ``Prover``.

A round is one ``Prover.next_value()`` call.  Every reversal gets a fresh
``Prover`` over a fresh chain seed drawn from the run's generator.
Released values are kept and checked after the reversal, outside its timed
span.
"""

import tracemalloc
from array import array
from time import perf_counter, perf_counter_ns

from measure import KIB, MD5, Tracer, chain_endpoint, chain_failures, md5

from chainpebble import Prover

def make_prover(spec, owf, seed: bytes) -> Prover:
    if spec.engine is None:  # the package default
        return Prover(owf, spec.k, seed)
    return Prover(owf, spec.k, seed, engine=spec.engine, family=spec.family)


def positions(count: int, n: int):
    """Chain position of each of ``count`` rounds of back-to-back reversals."""
    return (i % n for i in range(count))


def _release_all(prover: Prover, n: int, durations: array, values: list) -> int:
    """Release n values, timing each; returns the largest hash count."""
    clock = perf_counter_ns
    next_value = prover.next_value
    keep_ns = durations.append
    keep = values.append
    hashes_max = 0
    for _ in range(n):
        t0 = clock()
        v = next_value()
        keep_ns(clock() - t0)
        keep(v)
        h = prover.last_hashes
        if h > hashes_max:
            hashes_max = h
    return hashes_max


def setup_pass(spec, seeds: list[bytes]) -> list[int]:
    """ns to construct a ``Prover`` over each chain seed, once each."""
    times = []
    for seed in seeds:
        t0 = perf_counter_ns()
        make_prover(spec, MD5, seed)
        times.append(perf_counter_ns() - t0)
    return times


def timing_stage(spec, rng, seconds: float, setup_seeds: list[bytes] = (),
                 setup_every: float = 0.0) -> dict:
    """Whole reversals until ``seconds`` have passed (at least one).

    With ``setup_seeds``, a set-up pass over them (see ``setup_pass``) runs
    before the first reversal and then between reversals whenever
    ``setup_every`` seconds have passed since the last one, so the set-up
    timings are spread over the whole stage like the rounds.
    """
    n = 1 << spec.k
    rounds = array("q")
    setups = []
    hashes_max = attempted = failed = 0
    deadline = perf_counter() + seconds
    next_setup = 0.0
    while True:
        if setup_seeds and perf_counter() >= next_setup:
            setups.append(setup_pass(spec, setup_seeds))
            next_setup = perf_counter() + setup_every
        seed = rng.randbytes(16)
        prover = make_prover(spec, MD5, seed)
        values: list[bytes] = []
        hashes_max = max(hashes_max, _release_all(prover, n, rounds, values))
        attempted += n
        failed += chain_failures(values, seed, n)
        del prover, values
        if perf_counter() >= deadline:
            break
    return {
        "rounds": rounds,
        "setup_passes": setups,
        "reversals": attempted // n,
        "hashes_max": hashes_max,
        "attempted": attempted,
        "failed": failed,
    }


def memory_stage(spec, rng) -> dict:
    """tracemalloc peaks of one construction and one whole reversal.

    Values are checked one by one against the previous value, so nothing
    but the prover and two values is held.
    """
    n = 1 << spec.k
    seed = rng.randbytes(16)
    prev = chain_endpoint(seed, n)
    failed = 0
    tracemalloc.start()
    try:
        prover = make_prover(spec, MD5, seed)
        peak_setup = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in range(n):
            v = prover.next_value()
            failed += md5(v) != prev
            prev = v
        peak_reversal = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    failed += prev != seed
    return {
        "peak_kib_setup": peak_setup / KIB,
        "peak_kib_reversal": peak_reversal / KIB,
        "attempted": n,
        "failed": failed,
    }


def traced_stage(spec, rng, seconds: float, tracer: Tracer) -> dict:
    """Whole reversals through a metered owf, one span per construction and
    per release; keeps the last chain for the verifier timing."""
    n = 1 << spec.k
    owf = tracer.meter.owf
    attempted = failed = 0
    session = 0
    deadline = perf_counter() + seconds
    while True:
        seed = rng.randbytes(16)
        span = tracer.open("protocol.prover_init", session=session)
        prover = make_prover(spec, owf, seed)
        tracer.close(span)
        values = []
        for _ in range(n):
            span = tracer.open("protocol.next_value", session=session)
            v = prover.next_value()
            tracer.close(span)
            values.append(v)
        attempted += n
        failed += chain_failures(values, seed, n)
        session += 1
        if perf_counter() >= deadline:
            break
    return {"chain": (seed, values), "attempted": attempted, "failed": failed}
