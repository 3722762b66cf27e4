"""tracemalloc pass of one workload, in an interpreter of its own.

Usage: python3 perfbench/memory.py WORKLOAD SEED K [PORT]

Prints one JSON object: the peak over the set-up stage, the peak over the
reversal that follows (set-up state included), and the check counts.  A
fresh interpreter makes the peaks repeat to the byte; in the process that
has just run the timed stage they drift by a few bytes with its history.
PORT is the identification server's loopback port (identify workload).
"""

import functools
import json
import sys
from dataclasses import replace

import identify
import reverse
from measure import MD5
from run import WORKLOADS, stage_rng


def main() -> None:
    name, seed, k = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    spec = replace(WORKLOADS[name], k=k)
    if spec.kind == "reverse":
        res = reverse.memory_stage(spec, stage_rng(name, seed, "memory"))
    else:
        addr = ("127.0.0.1", int(sys.argv[4]))
        res = identify.memory_stage(addr, k, functools.partial(reverse.make_prover, spec, MD5),
                                    f"{name}/{seed}/memory")
    print(json.dumps(res))


if __name__ == "__main__":
    main()
