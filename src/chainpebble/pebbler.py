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
sub-pebblers still holding values), highest order first.  ``Pebbler.r`` is
the one counter a round advances, as the countdown c is the in-place
steppers'.  Each run keeps ``base``, the pebbler round just before its local
round 1, and never changes it: 0 for the root, the hand-off round for every
child built there, so its local round is r - base.  The root is an ordinary
run, so one frontier loop steps the set-up rounds, in which the root runs
alone and nothing emits, and the reversal rounds alike.  The run at its
hand-off is always the last: it is popped and its children appended.  A
hand-off allocates runs only for the children that will hash, orders
k-1..1; the popped run itself becomes the order-0 child, a pinned value
emitted next round, so a reversal of order k builds 2^(k-1) - 1 runs, not
2^k - 1.

Storage accounting counts live values only: a slot being filled counts as
one value, a slot handed to a child as its seed counts once (hand-off, never
a copy), and an emitted slot is freed immediately.  A run holds its seed
alone until it first hashes, and only then gets its k+1 slots, so an
order-0 run emits its seed without ever holding a slot list.

Budgets are computed per round by the family's rule in ``schedule.RULES``,
bound once; no run keeps a schedule list, so a whole tree holds O(k) values
in at most max(k, 1) runs.  Both engines share one fill loop, ``_fill``,
keyed by the hashes a frontier owes plus one; the root's set-up owes 2^k - 1
whatever the family, so ``finish_setup`` runs it as one fill.  The fill
hands a slot's share of ``owf.KERNEL_MIN`` (32) hashes or more to the
one-way function's kernel when it has one (the built-in md5's libcrypto
loop), so set-up's whole slots, 2^(k-1) down to 32 hashes, run in C; the
comment on ``owf.KERNEL_MIN`` states which rounds never reach it, and
without a kernel every share is the Python countdown, with identical
values.  Widths are checked at the boundary, the seed once at
construction, through ``Owf.as_value`` (whose docstring states the value
rule); one-way function outputs need no check, since ``owf`` makes every
``owf.fn`` width-exact.  Every value hashed or emitted is therefore of the
function's width.
"""

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .owf import KERNEL_MIN, Owf, evaluate
from .schedule import _checked_rule


class ExhaustedError(RuntimeError):
    """Stepping a pebbler, or draining a prover, past its final round."""


class DecodeError(ValueError):
    """Serialized in-place state is malformed."""


def _fill(owf: Owf, z: list, rem: int, n: int) -> None:
    """Spend n hashes on the frontier of the slots z, which owes rem - 1 more.

    Slot m = bitlen(rem) - 1 is being filled, rem - 2^m hashes short of
    done; completed slots stay pinned.  Slot m must hold a value and each
    slot started must be empty, else DecodeError (slots out of step with rem).
    With rem = 2^k and n = 2^k - 1 on [None]*k + [seed] it runs a whole
    set-up.  ``owf.fn`` is width-exact, so outputs need no check here.
    Each slot's share runs as one countdown that stores only its last
    value; the slot left part-filled is cleared while its run hashes, so
    its old value is not held beside the new.  It allocates nothing per
    call beyond the values it hashes (no ``range``), since most calls spend
    only one or two hashes.  A share of at least ``owf.KERNEL_MIN`` (32)
    hashes goes to the handle's kernel instead, when it has one (the
    built-in md5's libcrypto loop): set-up's slots 5 and up.  The comment
    on ``owf.KERNEL_MIN`` states which rounds keep the countdown.
    """
    fn = owf.fn
    m = rem.bit_length() - 1
    v = z[m]
    if v is None:
        raise DecodeError("hashing from an empty slot")
    share = rem - (1 << m)  # hashes slot m still owes
    if share:
        z[m] = None
    while True:
        if share < n:
            n -= share
        else:  # the call ends in slot m
            share, n = n, 0
        if share < KERNEL_MIN or owf._kernel is None:
            while share:
                v = fn(v)
                share -= 1
        else:  # a long run, set-up's whole slots: one call into C
            v = owf._kernel(v, share)
        z[m] = v
        if not n:
            return
        m -= 1
        if z[m] is not None:
            raise DecodeError("descended into an occupied slot")
        share = 1 << m


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
    """A live sub-pebbler: its order, base round, seed and fill frontier.

    ``base`` is the pebbler round just before the run's local round 1, so
    in pebbler round r the run is in its local round r - base.  After
    creation a run changes only ``slots`` and ``rem``, except when its
    hand-off reuses it as its order-0 child.  ``slots`` stays None until
    the run's first nonzero budget, when ``pin()`` gives it k+1 slots with
    the seed on top; a run that has not hashed holds its seed alone.
    """

    __slots__ = ("k", "base", "seed", "slots", "rem")

    def __init__(self, k: int, seed: bytes, base: int):
        self.k = k
        self.base = base
        self.seed = seed
        self.slots = None
        self.rem = 1 << k  # set-up hashes still owed, plus one

    def pin(self) -> list:
        """Allocate the k+1 slots, the seed in slot k, and return them."""
        z = self.slots = [None] * (self.k + 1)
        z[self.k] = self.seed
        return z


class Pebbler:
    """Single-owner state machine; each step() call runs round ``r`` (the
    same name and meaning as the in-place steppers' ``r``), and peek() reads
    what that round releases without running it.  It takes the seed
    through ``Owf.as_value``."""

    __slots__ = ("owf", "family", "k", "lifetime", "r", "children", "_rule")

    def __init__(self, owf: Owf, family: str, k: int, seed: bytes):
        rule = _checked_rule(family, k)
        seed = owf.as_value(seed)
        self.owf = owf
        self.family = family
        self.k = k
        self.lifetime = (1 << (k + 1)) - 1
        self.r = 1
        self.children = [_Run(k, seed, 0)]  # frontier; the root is a run like any other
        self._rule = rule

    @property
    def exhausted(self) -> bool:
        return self.r > self.lifetime

    def peek(self) -> Optional[bytes]:
        """The value the next round releases, read without stepping: the
        hand-off run's slot 0 (its seed at order 0); None in set-up rounds
        and once exhausted."""
        if not 1 << self.k <= self.r <= self.lifetime:
            return None
        run = self.children[-1]
        return run.slots[0] if run.k else run.seed

    def step(self) -> RoundResult:
        r = self.r
        out, hashes = self._round()
        return RoundResult(r, hashes, out)

    def _round(self) -> tuple[Optional[bytes], int]:
        """Run one round: return (output or None, hashes spent)."""
        r = self.r
        if r > self.lifetime:
            raise ExhaustedError(f"order-{self.k} pebbler is exhausted after round {self.lifetime}")
        self.r = r + 1
        frontier, rule, owf = self.children, self._rule, self.owf
        if r < 1 << self.k:  # the root's set-up: it runs alone and nothing emits
            out, k = None, 0
        else:
            # the run at its hand-off is the lowest order, which sits last
            emitter = frontier.pop() if frontier else None
            if emitter is None or r - emitter.base < 1 << emitter.k:
                raise RuntimeError("exactly one run hands off per round")
            k = emitter.k
            z = emitter.slots
            if not k:
                out = emitter.seed  # order 0: the seed is the run's one value
            elif z is None or z[0] is None:
                raise RuntimeError("a run reached its hand-off with its set-up unfinished")
            else:
                out = z[0]
        hashes = 0
        for run in frontier:
            q = r - run.base
            if q >= 1 << run.k:
                raise RuntimeError("exactly one run hands off per round")
            spent = rule(run.k, q)
            if spent:
                _fill(owf, run.slots or run.pin(), run.rem, spent)
                run.rem -= spent
                hashes += spent
        if k:
            for j in range(k, 1, -1):
                frontier.append(_Run(j - 1, z[j], r))
            # the emitter becomes its order-0 child, which emits z[1] unhashed
            emitter.k = 0
            emitter.base = r
            emitter.seed = z[1]
            emitter.slots = None
            emitter.rem = 1
            frontier.append(emitter)
        return out, hashes

    def finish_setup(self) -> int:
        """Run the set-up rounds left as one fill and return its hashes (0 past
        set-up); it leaves the state the per-round set-up leaves, since the
        root runs alone until round 2^k and owes 2^k - 1 hashes in all."""
        if self.r >= 1 << self.k:
            return 0
        run = self.children[0]
        n = run.rem - 1
        _fill(self.owf, run.slots or run.pin(), run.rem, n)
        run.rem = 1
        self.r = 1 << self.k
        return n

    def storage(self) -> int:
        """Live values held across the frontier at the start of the coming round."""
        held = 0
        for run in self.children:
            z = run.slots
            held += 1 if z is None else len(z) - z.count(None)
        return held

    def live_pebblers(self) -> list[tuple[int, int]]:
        """(order, local round) of every run on the frontier, highest order first."""
        return [(run.k, self.r - run.base) for run in self.children]


def reverse_oracle(owf: Owf, k: int, seed: bytes) -> list[bytes]:
    """All 2^k chain elements by brute-force storage, last element first."""
    xs = [seed]
    for _ in range((1 << k) - 1):
        xs.append(evaluate(owf, xs[-1]))
    xs.reverse()
    return xs


def run_outputs(owf: Owf, family: str, k: int, seed: bytes) -> list[bytes]:
    """Drive a pebbler through its whole lifetime and collect its outputs."""
    return [row.output for row in iter_trace(owf, family, k, seed) if row.output is not None]


def iter_trace(owf: Owf, family: str, k: int, seed: bytes) -> Iterator[TraceRow]:
    """Per-round hashes, start-of-round storage, and output for a full run,
    one row at a time, so that a caller can write each as it comes."""
    p = Pebbler(owf, family, k, seed)
    for _ in range(p.lifetime):
        held = p.storage()
        res = p.step()
        yield TraceRow(res.round, res.hashes, held, res.output)


def run_trace(owf: Owf, family: str, k: int, seed: bytes) -> list[TraceRow]:
    """``iter_trace``'s rows as one list."""
    return list(iter_trace(owf, family, k, seed))


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
