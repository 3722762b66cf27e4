"""chainpebble benchmark: release latency, set-up, memory and TCP identification.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

With ``--trace 0`` a run measures the end-to-end metrics of one workload
for about S seconds, plus a separate tracemalloc pass.  With ``--trace 1``
it measures every layer instead: the one-way function, the schedule, both
engine classes driven directly at the workload's family and k, and the
protocol layer (over loopback TCP even for the reverse workloads).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's metadata and sample counts, which are also written with the spans
under ``.perfbench_out/``.  Any released value that fails the check, and
any unexpected server reply, makes the run exit 1.

``--smoke`` runs every workload in both modes at k=6 for one second each
and checks the result schema against BENCHMARK.json and the paper's work
bounds, with no timing gates.
"""

import argparse
import functools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

try:
    import identify
    import layers
    import reverse
    from measure import (MD5, HashMeter, Tracer, best_profile, calibrate, latency_summary,
                         median, pct, profile_summary, run_metadata)
except ImportError as exc:  # no package sources next to the benchmark
    print(f"error: cannot import chainpebble from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)


@dataclass(frozen=True)
class Spec:
    kind: str  # "reverse" or "identify"
    engine: str | None  # Prover engine; None is the package default
    family: str
    k: int
    connections: int = 0

    @property
    def variant(self) -> str:
        """The in-place stepper for this family."""
        return "speed2" if self.family == "speed2" else "optimal"


# The gated workloads share family and order, so they differ only in the
# engine.  k=13 keeps a reversal short (about 0.2 s in place, 0.4 s on the
# framework), so that a 40 s run repeats every chain position about 90 to 190
# times to take per-position best times over (see best_profile).
WORKLOADS = {
    "reverse-optimal-md5": Spec("reverse", None, "optimal", 13),
    "reverse-framework-md5": Spec("reverse", "framework", "optimal", 13),
    # these two run by hand and in --smoke; BENCHMARK.json leaves them out
    # (see README.md)
    "reverse-speed2-md5": Spec("reverse", "inplace-speed2", "speed2", 15),
    "identify-md5-c2": Spec("identify", None, "optimal", 14, connections=2),
}
SMOKE_K = 6
# setup_s: the median over this many chains of each chain's best set-up over
# the passes of a run; on the reverse workloads a pass runs every
# SETUP_EVERY_S seconds of the timed stage
SETUP_CHAINS = 3
SETUP_EVERY_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "round_us_p50": "us",
    "round_us_p99": "us",
    "rounds_per_s": "1/s",
    "round_hashes_max": "count",
    "peak_kib": "KiB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "owf.fn_ns": "ns",
    "owf.evaluate_ns": "ns",
    "owf.calls_setup": "count",
    "owf.calls_per_round": "count",
    "owf.busy_share": "ratio",
    "schedule.make_schedule_ms": "ms",
    "schedule.make_schedule_kib": "KiB",
    "inplace.init_s": "s",
    "inplace.step_us_p50": "us",
    "inplace.step_us_p99": "us",
    "inplace.step_us_max": "us",
    "inplace.self_us_p50": "us",
    "inplace.overhead_x": "x",
    "inplace.hashes_max": "count",
    "inplace.slots_max": "count",
    "inplace.peak_kib_setup": "KiB",
    "inplace.peak_kib_reversal": "KiB",
    "pebbler.setup_s": "s",
    "pebbler.step_us_p50": "us",
    "pebbler.step_us_p99": "us",
    "pebbler.self_us_p50": "us",
    "pebbler.overhead_x": "x",
    "pebbler.hashes_max": "count",
    "pebbler.storage_max": "count",
    "pebbler.live_max": "count",
    "pebbler.peak_kib": "KiB",
    "protocol.prover_init_s": "s",
    "protocol.next_value_us_p50": "us",
    "protocol.register_ms": "ms",
    "protocol.exchange_us_p50": "us",
    "protocol.exchange_us_p99": "us",
    "protocol.verify_us": "us",
    "protocol.fail_replies": "count",
    "protocol.err_replies": "count",
    "trace.overhead_us": "us",
}


def work_bound(family: str, k: int) -> int:
    """The paper's worst-case hashes per output round."""
    return k - 1 if family == "speed2" else (k + 1) // 2


class Tally:
    """Operations attempted and failed over every stage of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def stage_rng(name: str, seed: int, stage: str) -> random.Random:
    """The input generator of one stage of a run, fixed by workload and seed."""
    return random.Random(f"{name}/{seed}/{stage}")


def _prover_factory(spec: Spec, owf):
    return functools.partial(reverse.make_prover, spec, owf)


def _protocol_checks(gen, tally: Tally) -> None:
    """Every tampered AUTH must be answered FAIL, and nothing else may be."""
    tally.add(gen.attempted, gen.failed)
    if gen.fail_replies != gen.tampered:
        tally.add(0, abs(gen.fail_replies - gen.tampered))


def _memory_pass(name: str, spec: Spec, seed: int, tally: Tally, addr=None) -> dict:
    cmd = [sys.executable, str(HERE / "memory.py"), name, str(seed), str(spec.k)]
    if addr is not None:
        cmd.append(str(addr[1]))
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"memory pass failed:\n{out.stderr[-4000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    tally.add(res["attempted"], res["failed"])
    return res


def _round_profile(rounds, positions, n: int) -> dict:
    profile = best_profile(rounds, positions, n)
    return {**profile_summary(profile), "profile_rounds_per_s": len(profile) * 1e9 / sum(profile)}


def end_to_end(spec: Spec, name: str, seed: int, seconds: float, tally: Tally):
    n = 1 << spec.k
    rng = stage_rng(name, seed, "setup")
    setup_seeds = [rng.randbytes(16) for _ in range(SETUP_CHAINS)]
    passes = []  # set-up ns per chain, one list per pass
    if spec.kind == "reverse":
        timing = reverse.timing_stage(spec, stage_rng(name, seed, "timing"), seconds,
                                      setup_seeds, SETUP_EVERY_S)
        tally.add(timing["attempted"], timing["failed"])
        passes = timing["setup_passes"]
        memory = _memory_pass(name, spec, seed, tally)
        rounds = timing["rounds"]
        prof = _round_profile(rounds, reverse.positions(len(rounds), n), n)
        rate = prof["profile_rounds_per_s"]
        hashes_max = timing["hashes_max"]
        samples = {"reversals": timing["reversals"]}
        detail = {}
    else:
        factory = _prover_factory(spec, MD5)
        with identify.server_process() as addr:

            def setup_pass():
                res = identify.setup_pass(addr, spec.k, factory, setup_seeds)
                tally.add(res["attempted"], res["failed"])
                passes.append(res["ns"])

            setup_pass()
            gen = identify.LoadGenerator(addr, spec.k, factory, spec.connections,
                                         f"{name}/{seed}/timing", seconds).run()
            _protocol_checks(gen, tally)
            setup_pass()
            memory = _memory_pass(name, spec, seed, tally, addr)
            setup_pass()
        rounds = gen.round_ns
        prof = _round_profile(rounds, gen.round_pos, n)
        rate = gen.window_rate()
        hashes_max = gen.hashes_max
        samples = {"sessions": len(gen.done), "rate_windows": len(gen.window_walls)}
        detail = {"tampered": gen.tampered, "fail_replies": gen.fail_replies,
                  "err_replies": gen.err_replies,
                  "session_setup_s_median": median(gen.setup_ns) / 1e9,
                  "all_rounds_per_s": len(rounds) * 1e9 / gen.wall_ns}
    # each chain's best set-up over the run's passes (see best_profile)
    setups = [min(times) for times in zip(*passes)]
    samples["setup_s"] = f"{SETUP_CHAINS} chains x best of {len(passes)} passes"
    metrics = {
        "setup_s": median(setups) / 1e9,
        "round_us_p50": prof["p50_us"],
        "round_us_p99": prof["p99_us"],
        "rounds_per_s": rate,
        "round_hashes_max": hashes_max,
        "peak_kib": max(memory["peak_kib_setup"], memory["peak_kib_reversal"]),
    }
    samples.update({"rounds": len(rounds), "positions": prof["positions"]})
    detail.update({
        "samples": samples,
        "all_rounds": latency_summary(rounds),
        "peak_kib_setup": memory["peak_kib_setup"],
        "peak_kib_reversal": memory["peak_kib_reversal"],
    })
    return metrics, detail


def _release_metrics(tracer, rounds: list[int], traced_p50_us: float,
                     untraced_p50_us: float) -> dict:
    """owf and protocol metrics of the prover's releases traced so far.

    Every hash of the prover runs inside a ``protocol.next_value`` span, and
    those never overlap, while the rounds of two connections can.
    """
    release = tracer.spans("protocol.next_value")
    init = tracer.spans("protocol.prover_init")
    hashes, owf_ns, start, end = tracer.hashes, tracer.owf_ns, tracer.start, tracer.end
    return {
        "owf.calls_setup": median([hashes[i] for i in init]),
        "owf.calls_per_round": sum(hashes[i] for i in release) / len(release),
        "owf.busy_share": sum(owf_ns[i] for i in release) / sum(rounds),
        "protocol.prover_init_s": median([end[i] - start[i] for i in init]) / 1e9,
        "protocol.next_value_us_p50": pct(sorted(end[i] - start[i] for i in release), 50) / 1e3,
        "trace.overhead_us": traced_p50_us - untraced_p50_us,
    }


def per_layer(spec: Spec, name: str, seed: int, seconds: float, tally: Tally):
    def rng(stage: str) -> random.Random:
        return stage_rng(name, seed, stage)

    tracer = Tracer(HashMeter(MD5))
    cal = calibrate(MD5)
    fn_ns = cal["fn_ns"]
    m = {"owf.fn_ns": fn_ns, "owf.evaluate_ns": cal["evaluate_ns"]}
    m.update(layers.schedule_layer(spec.family, spec.k))
    samples = {}
    for measure_layer, arg in ((layers.inplace_layer, spec.variant),
                               (layers.pebbler_layer, spec.family)):
        lm, checks, counts = measure_layer(arg, spec.k, rng(measure_layer.__name__), fn_ns, tracer)
        m.update(lm)
        samples.update(counts)
        tally.add(checks["attempted"], checks["failed"])

    key = f"{name}/{seed}"
    stage_s = seconds / 2
    n = 1 << spec.k
    with identify.server_process() as addr:
        if spec.kind == "reverse":
            ref = reverse.timing_stage(spec, rng("reference"), stage_s)
            tally.add(ref["attempted"], ref["failed"])
            untraced = _round_profile(ref["rounds"], reverse.positions(len(ref["rounds"]), n), n)
            traced = reverse.traced_stage(spec, rng("traced"), stage_s, tracer)
            tally.add(traced["attempted"], traced["failed"])
            rounds = tracer.durations("protocol.next_value")
            traced_prof = _round_profile(rounds, reverse.positions(len(rounds), n), n)
            chains = [traced["chain"]]
            m.update(_release_metrics(tracer, rounds, traced_prof["p50_us"], untraced["p50_us"]))
            # the protocol layer is off this workload's path: one session at its k
            gen = identify.LoadGenerator(addr, spec.k, _prover_factory(spec, MD5), 1,
                                         key + "/session", 3600, sessions_per_conn=1,
                                         tracer=tracer).run()
        else:
            ref = identify.LoadGenerator(addr, spec.k, _prover_factory(spec, MD5),
                                         spec.connections, key + "/reference",
                                         stage_s).run()
            _protocol_checks(ref, tally)
            untraced = _round_profile(ref.round_ns, ref.round_pos, n)
            gen = identify.LoadGenerator(addr, spec.k, _prover_factory(spec, tracer.meter.owf),
                                         spec.connections, key + "/traced", stage_s,
                                         tracer=tracer).run()
            rounds = tracer.durations("identify.round")
            traced_prof = _round_profile(gen.round_ns, gen.round_pos, n)
            chains = [(s.seed, s.values) for s in gen.done]
            m.update(_release_metrics(tracer, rounds, traced_prof["p50_us"], untraced["p50_us"]))
    _protocol_checks(gen, tally)

    verify_us, rejected = layers.verifier_layer(chains, 1 << spec.k)
    tally.add(sum(len(v) for _, v in chains), rejected)
    exchange = latency_summary(tracer.durations("protocol.exchange"))
    m.update({
        "protocol.register_ms": median(tracer.durations("protocol.register")) / 1e6,
        "protocol.exchange_us_p50": exchange["p50_us"],
        "protocol.exchange_us_p99": exchange["p99_us"],
        "protocol.verify_us": verify_us,
        "protocol.fail_replies": gen.fail_replies,
        "protocol.err_replies": gen.err_replies,
    })
    step = tracer.spans("inplace.step")
    step_ns = sum(tracer.end[i] - tracer.start[i] for i in step)
    samples.update({
        "rounds": len(rounds),
        "protocol.exchange": exchange["samples"],
        "protocol.register": len(tracer.spans("protocol.register")),
        "verify": sum(len(v) for _, v in chains),
        "spans": len(tracer.start),
    })
    spans_file = OUT / f"{name}-seed{seed}-spans.csv.gz"
    tracer.write(spans_file)
    detail = {
        "samples": samples,
        # owf share + self share of the traced in-place steps (sums to 1)
        "inplace_step_owf_share": sum(tracer.owf_ns[i] for i in step) / step_ns,
        "inplace_step_self_share": sum(tracer.self_times("inplace.step")) / step_ns,
        "tampered": gen.tampered,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return m, detail


def run_workload(name: str, spec: Spec, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result line and the run's detail."""
    tally = Tally()
    measure_fn = per_layer if trace else end_to_end
    metrics, detail = measure_fn(spec, name, seed, seconds, tally)
    units = PER_LAYER if trace else END_TO_END
    if not trace:
        metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return {"result": result, "detail": detail}


def check_result(result: dict, trace: int, spec: Spec) -> list[str]:
    """Schema and bound problems of one result line (empty when fine)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"not correct: {result['failed']} of {result['attempted']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    for name, m in result["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name} is not a finite number: {v!r}")
    if trace:
        bounds = {"inplace.hashes_max": work_bound(spec.variant, spec.k),
                  "pebbler.hashes_max": work_bound(spec.family, spec.k)}
    else:
        bounds = {"round_hashes_max": work_bound(spec.family, spec.k)}
    for name, want in bounds.items():
        got = result["metrics"].get(name, {}).get("value")
        if got != want:
            problems.append(f"{name} is {got}, the paper's bound is {want}")
    return problems


def smoke() -> int:
    failures = 0
    for name, spec in WORKLOADS.items():
        small = replace(spec, k=SMOKE_K)
        for trace in (0, 1):
            out = run_workload(name, small, 1, 1, trace)
            problems = check_result(out["result"], trace, small)
            failures += bool(problems)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"smoke {name} trace={trace} k={SMOKE_K}: {status}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check schema and correctness of every workload at small k")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                       args.trace)
    spec = WORKLOADS[args.workload]
    meta = run_metadata(args.workload, args.seed, args.seconds, args.trace)
    meta.update({"k": spec.k, "family": spec.family, "engine": spec.engine or "default",
                 "connections": spec.connections})
    record = {"meta": meta, "detail": out["detail"], "result": out["result"]}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta, "detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
