"""Round-driven binary pebblers over any schedule family.

A pebbler of order k owns k+1 value slots and runs for 2^(k+1)-1 rounds.
During the 2^k-1 set-up rounds it spends its schedule's budget per round,
pinning the values f^(2^k - 2^i)(seed) into slot i as the frontier sweeps
down the chain.  Round 2^k emits slot 0 for free; each pinned slot i then
seeds a child pebbler of order i-1, and the children run in parallel (one
round each per parent round) so that exactly one of them emits per round.
The net effect: the chain seed, f(seed), ..., f^(2^k-1)(seed) comes out in
reverse, one element per round over the last 2^k rounds.

The tree is kept flat: ``Pebbler.children`` is the frontier of runs (the
sub-pebblers still holding values), highest order first.  A run at its
hand-off is replaced in place by its children; stepping the frontier
reversed reverses the children at every level.

Storage accounting counts live values only: a slot being filled counts as
one value, a slot handed to a child as its seed counts once (hand-off, never
a copy), and an emitted slot is freed immediately.

Budgets are computed per round by ``schedule.budget``; no run keeps a
schedule list, so a whole tree holds O(k) values in at most max(k, 1) runs.
Widths are checked at the boundary: the seed once at construction, and each
one-way function output where the fill loop computes it (by calling
``owf.fn`` directly).  Every value hashed or emitted is therefore of the
function's width.
"""

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .owf import Owf, WidthError, evaluate
from .schedule import FAMILIES, budget


class ExhaustedError(RuntimeError):
    """Stepping a pebbler, or draining a prover, past its final round."""


@dataclass(frozen=True)
class RoundResult:
    round: int
    hashes: int
    output: Optional[bytes]


@dataclass(frozen=True)
class TraceRow:
    round: int
    hashes: int
    storage: int
    output: Optional[bytes]


class _Run:
    """A live sub-pebbler: its order, local round, slots and fill frontier."""

    __slots__ = ("k", "round_no", "slots", "fill", "gap")

    def __init__(self, k: int, seed: bytes, round_no: int = 1):
        self.k = k
        self.round_no = round_no
        self.slots = [None] * k + [seed]
        self.fill = k
        self.gap = 0


class Pebbler:
    """Single-owner state machine; each step() call runs one round."""

    __slots__ = ("owf", "family", "k", "lifetime", "round_no", "children", "child_order")

    def __init__(self, owf: Owf, family: str, k: int, seed: bytes,
                 child_order: str = "descending"):
        if k < 0:
            raise ValueError("order k must be >= 0")
        if family not in FAMILIES:
            raise ValueError(f"unknown schedule family {family!r}")
        if child_order not in ("descending", "ascending"):
            raise ValueError("child_order must be 'descending' or 'ascending'")
        if len(seed) != owf.width:
            raise WidthError(f"{owf.name} expects {owf.width} bytes, got {len(seed)}")
        self.owf = owf
        self.family = family
        self.k = k
        self.lifetime = (1 << (k + 1)) - 1
        self.round_no = 1
        self.children = [_Run(k, seed, 1 << k)]  # frontier; the root run waits at its hand-off
        self.child_order = child_order

    @property
    def exhausted(self) -> bool:
        return self.round_no > self.lifetime

    @property
    def redundant(self) -> bool:
        """True once the children have taken over all stored values (after round 2^k)."""
        return self.round_no > 1 << self.k

    def step(self) -> RoundResult:
        r = self.round_no
        out, hashes = self._round()
        return RoundResult(r, hashes, out)

    def _round(self) -> tuple[Optional[bytes], int]:
        """Run one round: return (output or None, hashes spent)."""
        r = self.round_no
        if r < 1 << self.k:  # the root's own set-up: one run, one budget, nothing emits
            self.round_no = r + 1
            hashes = budget(self.family, self.k, r)
            if hashes:
                self._fill(self.children[0], hashes)
            return None, hashes
        if r > self.lifetime:
            raise ExhaustedError(f"pebbler of order {self.k} ended after round {self.lifetime}")
        self.round_no = r + 1
        frontier, family = self.children, self.family
        hashes, emitter = 0, None
        for run in reversed(frontier) if self.child_order == "ascending" else frontier:
            q = run.round_no
            run.round_no = q + 1
            if q < 1 << run.k:
                spent = budget(family, run.k, q)
                if spent:
                    self._fill(run, spent)
                    hashes += spent
            elif emitter is None:
                emitter = run
            else:
                raise RuntimeError("exactly one run hands off per round")
        if emitter is None:
            raise RuntimeError("exactly one run hands off per round")
        out = emitter.slots[0]
        if out is None:
            raise RuntimeError("a run reached its hand-off with its set-up unfinished")
        i = frontier.index(emitter)
        frontier[i:i + 1] = [_Run(j - 1, emitter.slots[j]) for j in range(emitter.k, 0, -1)]
        return out, hashes

    def _fill(self, run: _Run, hashes: int) -> None:
        """Spend hashes on the run's frontier, pinning each slot as it completes;
        raise WidthError on any ``owf.fn`` output not of the function's width."""
        fn, width = self.owf.fn, self.owf.width
        slots, fill, gap = run.slots, run.fill, run.gap
        v = slots[fill]
        for _ in range(hashes):
            if gap == 0:
                fill -= 1
                gap = 1 << fill
            v = fn(v)
            if len(v) != width:
                raise WidthError(f"{self.owf.name} returned {len(v)} bytes, expected {width}")
            slots[fill] = v
            gap -= 1
        run.fill, run.gap = fill, gap

    def storage(self) -> int:
        """Live values held across the frontier at the start of the coming round."""
        return sum(len(run.slots) - run.slots.count(None) for run in self.children)

    def live_pebblers(self) -> list[tuple[int, int]]:
        """(order, local round) of every run on the frontier, highest order first."""
        if not self.redundant:
            return [(self.k, self.round_no)]
        return [(run.k, run.round_no) for run in self.children]


def reverse_oracle(owf: Owf, k: int, seed: bytes) -> list[bytes]:
    """All 2^k chain elements by brute-force storage, last element first."""
    xs = [seed]
    for _ in range((1 << k) - 1):
        xs.append(evaluate(owf, xs[-1]))
    xs.reverse()
    return xs


def run_outputs(owf: Owf, family: str, k: int, seed: bytes,
                child_order: str = "descending") -> list[bytes]:
    """Drive a pebbler through its whole lifetime and collect its outputs."""
    p = Pebbler(owf, family, k, seed, child_order)
    out = []
    for _ in range(p.lifetime):
        res = p.step()
        if res.output is not None:
            out.append(res.output)
    return out


def run_trace(owf: Owf, family: str, k: int, seed: bytes,
              child_order: str = "descending") -> list[TraceRow]:
    """Per-round hashes, start-of-round storage, and output for a full run."""
    p = Pebbler(owf, family, k, seed, child_order)
    rows = []
    for _ in range(p.lifetime):
        held = p.storage()
        res = p.step()
        rows.append(TraceRow(res.round, res.hashes, held, res.output))
    return rows


def trace_csv_lines(rows: Iterable[TraceRow]) -> Iterable[str]:
    yield "round,hashes,storage,output"
    for row in rows:
        out = row.output.hex() if row.output is not None else ""
        yield f"{row.round},{row.hashes},{row.storage},{out}"


def trace_jsonl_lines(rows: Iterable[TraceRow]) -> Iterable[str]:
    for row in rows:
        out = row.output.hex() if row.output is not None else None
        yield json.dumps(
            {"round": row.round, "hashes": row.hashes, "storage": row.storage, "output": out}
        )
