"""The paper's guarantees as checks, shared by ``chainpebble verify`` and the tests.

Each check covers the orders it is given and raises ``CheckFailed`` at the
first counterexample, naming the family, k and, where there is one, the
round; none is an ``assert``, which ``python -O`` strips.  Checks reach the
code under test through module attributes, so a monkeypatched fault shows.
"""

import random
from functools import partial
from typing import Callable, Iterable

from . import inplace, pebbler, protocol, schedule
from .owf import Owf

# f(x) = x + 1 mod 2^64: from seed 0 every value is its own chain position,
# so a state's slots can be written down for any round without hashing; not
# one-way, which pebbling correctness does not need
POSITION = Owf("position64", 8,
               lambda v: ((int.from_bytes(v, "big") + 1) % (1 << 64)).to_bytes(8, "big"))

# make_schedule("optimal", k) for small k, as published
FIXTURES = {
    0: [],
    1: [1],
    2: [0, 1, 2],
    3: [0, 0, 0, 2, 1, 2, 2],
    4: [0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 2, 2, 2, 3],
}


class CheckFailed(Exception):
    """A guarantee does not hold; the message names the counterexample."""


def _same(got: list, want: list, where: str, first_round: int) -> None:
    """Raise at the first entry where two per-round lists differ."""
    for r, (g, w) in enumerate(zip(got, want), first_round):
        if g != w:
            raise CheckFailed(f"{where} round {r}")
    if len(got) != len(want):
        raise CheckFailed(f"{where}: {len(got)} rounds, want {len(want)}")


def schedule_sums(ks: Iterable[int]) -> None:
    """Every family's set-up budgets sum to 2^k - 1."""
    for k in ks:
        for family in schedule.FAMILIES:
            if sum(schedule.make_schedule(family, k)) != (1 << k) - 1:
                raise CheckFailed(f"{family} k={k}")


def closed_form_fixtures(ks: Iterable[int]) -> None:
    """The optimal closed form gives the published budgets at k <= 4."""
    for k in ks:
        if k in FIXTURES:
            _same(schedule.make_schedule("optimal", k), FIXTURES[k], f"optimal k={k}", 1)


def rounding(ks: Iterable[int]) -> None:
    """Parity rounding of the exact half-integer schedule gives the integer one."""
    for k in ks:
        halves = schedule.unrounded_optimal(k)  # raises if the constructions disagree
        _same(schedule.parity_round(halves, k), schedule.make_schedule("optimal", k),
              f"optimal k={k}", 1)


def key_equation(ks: Iterable[int]) -> None:
    """No gaps: each output round of the unrounded optimal schedule spends (k+1)/2."""
    for k in ks:
        if not schedule.key_equation_holds(k):
            raise CheckFailed(f"optimal k={k}")


def work_bounds(ks: Iterable[int]) -> None:
    """Speed-1 and speed-2 peak at k-1 hashes a round; optimal peaks at the
    ceil(k/2) floor, and no family goes below it."""
    for k in ks:
        floor = (k + 1) // 2 if k >= 2 else 0
        peaks = {"speed1": k - 1, "speed2": k - 1, "optimal": floor}
        for family in schedule.FAMILIES:
            w = schedule.work_sequence(family, k)
            top = max(w)
            if top < floor or top != peaks.get(family, top):
                r = (1 << k) + 1 + w.index(top)
                raise CheckFailed(f"{family} k={k} round {r}: {top} hashes")


def oracle_reversal(owf: Owf, seed: bytes, ks: Iterable[int]) -> None:
    """Every family emits the chain exactly as brute-force storage does."""
    for k in ks:
        want = pebbler.reverse_oracle(owf, k, seed)
        for family in schedule.FAMILIES:
            _same(pebbler.run_outputs(owf, family, k, seed), want, f"{family} k={k}", 1 << k)


def storage_bounds(owf: Owf, seed: bytes, ks: Iterable[int]) -> None:
    """Measured storage: 1 value in round 1 and k+1 in round 2^k; the peak is
    max(k+1, 2k-2) for speed-1 and k+1 for speed-2 and optimal."""
    for k in ks:
        peaks = {"speed1": max(k + 1, 2 * k - 2), "speed2": k + 1, "optimal": k + 1}
        for family in schedule.FAMILIES:
            rows = pebbler.run_trace(owf, family, k, seed)
            top = max(rows, key=lambda row: row.storage)
            for row, want in ((rows[0], 1), (rows[(1 << k) - 1], k + 1),
                              (top, peaks.get(family, top.storage))):
                if row.storage != want:
                    raise CheckFailed(f"{family} k={k} round {row.round}: {row.storage} values")


def inplace_equivalence(owf: Owf, seed: bytes, variant: str, ks: Iterable[int]) -> None:
    """A stepper emits the framework's (output, hashes) pairs, and so does a
    state saved at any of 20 sampled rounds and restored."""
    for k in ks:
        n = 1 << k
        p = protocol.Prover(owf, k, seed, "framework", variant)
        want = [(p.next_value(), p.last_hashes) for _ in range(n)]  # as a stepper's step()
        state = inplace.STEPPERS[variant](owf, k, seed)
        blobs, got = [], []
        for _ in range(n):
            blobs.append(inplace.save(state))
            got.append(state.step())
        _same(got, want, f"{variant} k={k}", n)
        for at in random.Random(k).sample(range(n), min(20, n)):
            resumed = inplace.restore(blobs[at], owf)
            rest = [resumed.step() for _ in range(n - at)]
            _same(rest, want[at:], f"{variant} k={k} restored at round {n + at},", n + at)


def counter_decoding(owf: Owf, seed: bytes, ks: Iterable[int]) -> None:
    """The countdown's bits give the framework's live sub-pebblers, their
    phases and their unrounded bit-segment budgets."""
    for k in ks:
        p = pebbler.Pebbler(owf, "optimal", k, seed)
        p.finish_setup()
        p.step()
        for r in range((1 << k) + 1, 1 << (k + 1)):
            c = (1 << (k + 1)) - r
            where = f"optimal k={k} round {r}"
            live = p.live_pebblers()
            decoded = inplace.decode_states(k, c)
            if [d.index for d in decoded] != [i for i, _ in live]:
                raise CheckFailed(f"{where}: orders")
            for d, (i, rho) in zip(decoded, live):
                if rho == 1 << i:
                    phase = inplace.FIRST_OUTPUT
                elif i >= 1 and rho <= 1 << (i - 1):
                    phase = inplace.IDLE
                else:
                    phase = inplace.HASHING
                if d.local_counter != (1 << (i + 1)) - rho or d.phase != phase:
                    raise CheckFailed(f"{where}: order {i}")
            for i, doubled in inplace.segment_budgets(k, c):
                rho = (1 << (i + 1)) - c % (1 << (i + 1))
                halves = [2] if i == 1 else schedule.unrounded_optimal(i)
                if doubled != halves[rho - 1]:
                    raise CheckFailed(f"{where}: budget of order {i}")
            p.step()


def closed_form_blob(family: str, k: int, r: int) -> bytes:
    """save() of the family's stepper over ``POSITION`` from seed 0 at round
    r, from the closed form alone: each set bit i of c = 2^(k+1) - r is a
    sub-pebbler whose values end below top = c with bits 0..i-1 cleared and
    that still owes rem - 1 hashes, rem being the family's remaining set-up
    sum from ``schedule`` over its c mod 2^i set-up rounds left, plus one;
    with m = bitlen(rem) - 1 it holds top - 2^j in slots m < j <= i and
    top - rem in slot m."""
    remaining = {"optimal": schedule.optimal_remaining,
                 "speed2": schedule.speed2_remaining}[family]
    c = (2 << k) - r
    slots = [None] * (k + 1)
    for i in range(k + 1):
        if c >> i & 1:
            top = c >> i << i
            rem = remaining(i, c % (1 << i)) + 1
            m = rem.bit_length() - 1
            slots[m:i + 1] = [top - rem, *(top - (1 << j) for j in range(m + 1, i + 1))]
    body = b"".join(bytes(9) if p is None else b"\x01" + p.to_bytes(8, "big") for p in slots)
    return bytes([inplace.STEPPERS[family].code, k]) + r.to_bytes(4, "big") + body


def inplace_scale(variants: Iterable[str]) -> None:
    """At order ``MAX_K``, a stepper restored from ``closed_form_blob`` at 40
    rounds drawn across the reversal steps min(300, c) rounds from each: it
    releases each round's chain position, spends the family's budgets over
    the live sub-pebblers' set-up rounds (read from ``schedule.RULES``,
    which shares no code with the steps), at most the family's peak, and
    ends in the closed form's state."""
    k = schedule.MAX_K
    for variant in variants:
        rule, rng = schedule.RULES[variant], random.Random(30)
        peak = (k + 1) // 2 if variant == "optimal" else k - 1
        for r in sorted(rng.randrange(1 << k, 2 << k) for _ in range(40)):
            c0, where = (2 << k) - r, f"{variant} k={k} restored at round {r}"
            # per round: position c - 1, and the budgets of the sub-pebblers in set-up
            want = [((c - 1).to_bytes(8, "big"),
                     sum(rule(i, (1 << i) - c % (1 << i)) for i in range(k + 1)
                         if c >> i & 1 and c % (1 << i)))
                    for c in range(c0, max(c0 - 300, 0), -1)]
            try:
                state = inplace.restore(closed_form_blob(variant, k, r), POSITION)
                _same([state.step() for _ in want], want, where + ",", r)
            except pebbler.DecodeError as exc:
                raise CheckFailed(f"{where}: {exc}") from None
            if max(h for _, h in want) > peak:
                raise CheckFailed(f"{where}: over {peak} hashes")
            if inplace.save(state) != closed_form_blob(variant, k, state.r):
                raise CheckFailed(f"{where}: state at round {state.r}")


def suite(owf: Owf, seed: bytes, k_max: int) -> list[tuple[str, Callable[[], None]]]:
    """The (name, check) pairs ``verify`` runs; pebbler runs are capped to stay fast."""
    to10 = range(min(k_max, 10) + 1)
    return [
        ("schedule-sums", partial(schedule_sums, range(k_max + 1))),
        ("closed-form-fixtures", partial(closed_form_fixtures, range(k_max + 1))),
        ("recursive-vs-explicit-rounding", partial(rounding, range(2, k_max + 1))),
        ("key-equation", partial(key_equation, range(2, max(k_max, 2) + 1))),
        ("work-bounds", partial(work_bounds, range(1, k_max + 1))),
        ("oracle-reversal", partial(oracle_reversal, owf, seed, range(min(k_max, 12) + 1))),
        ("storage-bounds", partial(storage_bounds, owf, seed, to10)),
        *((f"inplace-{v}-equivalence", partial(inplace_equivalence, owf, seed, v, to10))
          for v in inplace.STEPPERS),
        ("counter-decoding", partial(counter_decoding, owf, seed, range(1, min(k_max, 8) + 1))),
        ("inplace-scale", partial(inplace_scale, inplace.STEPPERS)),  # at MAX_K, whatever k_max
    ]
