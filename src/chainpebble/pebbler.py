"""Round-driven binary pebblers over any schedule family.

A pebbler of order k owns k+1 value slots and runs for 2^(k+1)-1 rounds.
During the 2^k-1 set-up rounds it spends its schedule's budget per round,
pinning the values f^(2^k - 2^i)(seed) into slot i as the frontier sweeps
down the chain.  Round 2^k emits slot 0 for free; each pinned slot i then
seeds a child pebbler of order i-1, and the children run in parallel (one
round each per parent round) so that exactly one of them emits per round.
The net effect: the chain seed, f(seed), ..., f^(2^k-1)(seed) comes out in
reverse, one element per round over the last 2^k rounds.

Storage accounting counts live values only: a slot being filled counts as
one value, a slot handed to a child as its seed counts once (hand-off, never
a copy), an emitted slot is freed immediately, and a pebbler whose children
have taken over holds nothing of its own.
"""

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .owf import Owf, evaluate
from .schedule import make_schedule


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


class Pebbler:
    """Single-owner state machine; each step() call runs one round."""

    def __init__(self, owf: Owf, family: str, k: int, seed: bytes,
                 child_order: str = "descending"):
        if k < 0:
            raise ValueError("order k must be >= 0")
        if child_order not in ("descending", "ascending"):
            raise ValueError("child_order must be 'descending' or 'ascending'")
        self.owf = owf
        self.family = family
        self.k = k
        self.lifetime = (1 << (k + 1)) - 1
        self.round_no = 1
        self.slots: Optional[list] = [None] * k + [seed]
        self.fill = k
        self.gap = 0
        self.children: list[Pebbler] = []
        self.child_order = child_order
        self._budget = make_schedule(family, k)

    @property
    def exhausted(self) -> bool:
        return self.round_no > self.lifetime

    @property
    def redundant(self) -> bool:
        """True once the children have taken over all stored values."""
        return self.slots is None

    def step(self) -> RoundResult:
        r = self.round_no
        if r > self.lifetime:
            raise ExhaustedError(f"pebbler of order {self.k} ended after round {self.lifetime}")
        n = 1 << self.k
        out = None
        if r < n:
            hashes = self._budget[r - 1]
            for _ in range(hashes):
                v = self.slots[self.fill]
                if self.gap == 0:
                    self.fill -= 1
                    self.gap = 1 << self.fill
                self.slots[self.fill] = evaluate(self.owf, v)
                self.gap -= 1
        elif r == n:
            out = self.slots[0]
            self.children = [
                Pebbler(self.owf, self.family, i - 1, self.slots[i], self.child_order)
                for i in range(self.k, 0, -1)
            ]
            self.slots = None  # hand-off: the pinned values now live in the children
            hashes = 0
        else:
            live = list(self.children)
            if self.child_order == "ascending":
                live.reverse()
            hashes = 0
            emitted = 0
            for child in live:
                res = child.step()
                hashes += res.hashes
                if res.output is not None:
                    out = res.output
                    emitted += 1
            if emitted != 1:
                raise RuntimeError("exactly one child emits per round")
            self.children = [c for c in self.children if not c.exhausted]
        self.round_no += 1
        return RoundResult(r, hashes, out)

    def storage(self) -> int:
        """Live values held across the whole tree at the start of the coming round."""
        if self.exhausted:
            return 0
        if self.slots is None:
            return sum(c.storage() for c in self.children)
        return sum(1 for v in self.slots if v is not None)

    def live_pebblers(self) -> list[tuple[int, int]]:
        """(order, local round) of every live descendant, highest order first."""
        if self.exhausted:
            return []
        if self.slots is not None:
            return [(self.k, self.round_no)]
        found: list[tuple[int, int]] = []
        for child in self.children:
            found.extend(child.live_pebblers())
        return found


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
