#!/usr/bin/env python3
"""Print per-round panels (budget, work, storage) for every schedule family.

For the chosen order k, each family gets a column triple: the set-up budget
or reversal work spent that round, the live pebble count at the start of the
round, and the emitted chain element's index if any.  A summary table of
worst-case work and storage across orders follows, next to the predicted
bounds max(k+1, 2k-2), k+1, k-1 and ceil(k/2).
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))  # run from a checkout without installing

from chainpebble.cli import VERIFY_K_MAX, default_seed, upto  # noqa: E402
from chainpebble.inplace import MAX_K  # noqa: E402
from chainpebble.owf import OWF_NAMES, builtin  # noqa: E402
from chainpebble.pebbler import iter_trace  # noqa: E402
from chainpebble.schedule import FAMILIES  # noqa: E402


def print_panel(owf, family, k, seed):
    print(f"\n{family} pebbler, order {k} (chain length {1 << k})")
    print(f"{'round':>5} {'hashes':>6} {'pebbles':>7}  output")
    emitted = (1 << k) - 1
    for row in iter_trace(owf, family, k, seed):  # printed as they come
        label = ""
        if row.output is not None:
            label = f"x_{emitted} = {row.output.hex()}"
            emitted -= 1
        print(f"{row.round:>5} {row.hashes:>6} {row.storage:>7}  {label}")


def print_summary(owf, seed, k_max):
    print(f"\nworst-case work / storage by order (measured vs predicted)")
    header = f"{'k':>3}"
    for family in FAMILIES:
        header += f" | {family:>16}"
    print(header + " |   speed1-pred  speed2/opt-pred  opt-work-pred")
    for k in range(1, k_max + 1):
        line = f"{k:>3}"
        for family in FAMILIES:
            work = store = 0
            for row in iter_trace(owf, family, k, seed):
                store = max(store, row.storage)
                if row.round > 1 << k:  # a reversal round
                    work = max(work, row.hashes)
            line += f" | w={work:>2} s={store:>2}   "
        line += f" |   s={max(k + 1, 2 * k - 2):>2}        s={k + 1:>2}            w={(k + 1) // 2:>2}"
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=upto("order", MAX_K), default=4,
                        help=f"panel order, 0..{MAX_K} (default 4)")
    parser.add_argument("--k-max", type=upto("order", VERIFY_K_MAX), default=10, dest="k_max",
                        help=f"largest order in the summary table, 0..{VERIFY_K_MAX}")
    parser.add_argument("--owf", default="testmix64", choices=OWF_NAMES)
    args = parser.parse_args()
    owf = builtin(args.owf)
    seed = default_seed(owf)
    for family in FAMILIES:
        print_panel(owf, family, args.k, seed)
    print_summary(owf, seed, args.k_max)


if __name__ == "__main__":
    main()
