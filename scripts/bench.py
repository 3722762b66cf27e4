"""Run the gated benchmark workloads on one or more checkouts and write a BENCH file.

Usage, from the root of a checkout:

    python3 scripts/bench.py --out BENCH_14.json parent=/path/to/parent change=.

Each LABEL=PATH names a checkout.  For every workload that the first
checkout's BENCHMARK.json gates and seeds 1..10, the script runs

    python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0

(40 being BENCHMARK.json's ``run_seconds``) in each checkout in turn,
alternating which checkout goes first from one seed to the next, so that
host drift falls on both sides alike; ten seeds give the ten pairs on
which a claimed gain must win nine times.  It then runs ``--trace 1`` with
seeds 1..3 the same way, for the per-layer metrics (``owf.fn_ns``, the md5
cost of each run, calibrates the timings); a single traced run moves by
up to 40% on identical code, so each per-layer metric is the median of the
three.  The output holds, per checkout and workload, every run's
end-to-end metrics and their median, quartiles and interquartile range,
each per-layer metric's median with the three traced runs beside it, and
the Python version, CPU and commit from the runs' metadata line, and
``git_dirty``: whether the checkout's working tree had uncommitted changes
when the script started (``git status --porcelain``; null outside a git
work tree), since the commit alone does not name what ran.  Any run that
exits nonzero or reports a failure stops the script.

Given exactly two checkouts, the first the parent and the second the
change, the output also holds a ``compare`` block: for each workload and
end-to-end metric, the runs paired by seed and the change's wins and ties
among them, in the direction BENCHMARK.json's ``better`` gives (a tie
counts for neither side); ``median_delta``, the change's median less the
parent's as a fraction of the parent's; ``parent_iqr``, the parent's
interquartile range as a fraction of its median; the metric's ``bound``;
and ``beyond_bound``, true when the change's median is worse than the
parent's by more than ``bound`` (as a fraction of the parent's median, in
the direction ``better`` gives).  A claimed gain needs nine wins in ten
pairs and a ``median_delta`` beyond ``parent_iqr``; no metric may lose more
than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One perfbench run: (metadata, result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-4000:]}")
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: "
                           f"{result['failed']} of {result['attempted']} failed")
    return meta, result


def git_dirty(checkout: Path) -> bool | None:
    """True if the checkout's working tree has uncommitted changes, None
    if it is not a git work tree."""
    done = subprocess.run(["git", "status", "--porcelain"], cwd=checkout, capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        return None
    return bool(done.stdout.strip())


def summarize(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of one metric's runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def layer_medians(runs: list[dict]) -> dict:
    """Each per-layer metric's median over the traced runs' metrics."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def compare(parent: list[dict], change: list[dict], metric: dict) -> dict:
    """One end-to-end metric's reading on one workload, from each side's
    runs ({"seed", "metrics"}) and the metric's BENCHMARK.json entry."""
    name = metric["name"]
    sign = 1 if metric["better"] == "higher" else -1
    base = {r["seed"]: r["metrics"][name] for r in parent}
    pairs = [(base[r["seed"]], r["metrics"][name]) for r in change if r["seed"] in base]
    before = summarize(list(base.values()))
    after = statistics.median(r["metrics"][name] for r in change)
    return {"pairs": len(pairs),
            "wins": sum(sign * (new - old) > 0 for old, new in pairs),
            "ties": sum(new == old for old, new in pairs),
            "median_delta": (after - before["median"]) / before["median"],
            "parent_iqr": before["iqr"] / before["median"],
            "better": metric["better"],
            "bound": metric["bound"]}


def flag_bound(reading: dict) -> dict:
    """A compare() reading with ``beyond_bound``: whether the change's
    median is worse than the parent's by more than the metric's bound."""
    worse = -reading["median_delta"] if reading["better"] == "higher" else reading["median_delta"]
    return {**reading, "beyond_bound": worse > reading["bound"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=PATH")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {}
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep or not label or label in checkouts:
            parser.error(f"checkouts are distinct LABEL=PATH pairs, got {item!r}")
        checkouts[label] = Path(path).resolve()

    dirty = {label: git_dirty(path) for label, path in checkouts.items()}
    bench = json.loads((next(iter(checkouts.values())) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs = {label: {w: [] for w in workloads} for label in checkouts}
    traced = {label: {w: [] for w in workloads} for label in checkouts}
    meta = {}
    order = list(checkouts)
    # (trace flag, seeds, where the runs go, metrics shown as each run ends)
    passes = ((0, SEEDS, runs, ("rounds_per_s", "peak_kib")),
              (1, TRACE_SEEDS, traced, ("pebbler.self_us_p50", "owf.fn_ns")))
    for w in workloads:
        for trace, seeds, into, shown in passes:
            for seed in seeds:
                for label in order if seed % 2 else order[::-1]:
                    meta[label], result = run_perfbench(checkouts[label], w, seed, seconds,
                                                        trace)
                    values = {name: m["value"] for name, m in result["metrics"].items()}
                    into[label][w].append({"seed": seed, "metrics": values})
                    print(f"{label} {w} seed {seed} trace {trace}: "
                          + ", ".join(f"{name} {values[name]:.4g}" for name in shown),
                          file=sys.stderr)

    out = {"command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds} --trace 0|1",
           "seeds": list(SEEDS), "trace_seeds": list(TRACE_SEEDS), "checkouts": {}}
    for label in checkouts:
        entry = {key: meta[label][key] for key in ("git_commit", "source_sha256", "python",
                                                   "implementation", "cpu_model", "nproc")}
        entry["git_dirty"] = dirty[label]
        entry["workloads"] = {}
        for w in workloads:
            entry["workloads"][w] = {
                "end_to_end": {name: {**summarize([r["metrics"][name] for r in runs[label][w]]),
                                      "unit": unit}
                               for name, unit in units.items()},
                "per_layer": layer_medians([r["metrics"] for r in traced[label][w]]),
                "per_layer_runs": traced[label][w],
                "runs": runs[label][w],
            }
        out["checkouts"][label] = entry
    if len(checkouts) == 2:
        parent, change = checkouts
        out["compare"] = {"parent": parent, "change": change, "workloads": {
            w: {m["name"]: flag_bound(compare(runs[parent][w], runs[change][w], m))
                for m in bench["end_to_end"]}
            for w in workloads}}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
