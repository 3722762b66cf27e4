"""In-place pebblers: between rounds the whole state is a countdown plus slots.

A state is (owf, c, slots): the countdown c = 2^(k+1) - r, which each step
counts down by one, and k+1 value slots.  The order k = len(slots) - 1 and
the round r = 2^(k+1) - c are read off them, not stored.  During the
reversal stage, everything about the sub-pebblers running in parallel can
be read off the binary representation of c: each set bit i is a live
sub-pebbler of order i, its progress is c mod 2^(i+1), and its values sit
in the slot block that ends at index i.  The slot written next by a
working pebbler is always the one just vacated by the pebblers to its
right, which is what makes a fixed array suffice.  Each sub-pebbler's
frontier is one counter per bit, ``rem[i]`` (hashes the order-i pebbler
still owes, plus one), a closed form in i and u = c mod 2^i: the
family's remaining set-up sum plus one, that sum being
``schedule.optimal_remaining`` for the optimal stepper and
``schedule.speed2_remaining`` for the speed-2 one (each stepper class names
its own as ``remaining``).  One helper, ``_frontier``, builds the k+1
counters from (k, r) in O(k), with no table, for both steppers, and the
slots a state holds are read off them by one presence rule (``restore``
states it).  Every state, set up from a seed or restored from a blob, is
built by one method, ``_InPlace._build``, which applies that rule; the
optimal stepper keeps the counters as an array of k+1 machine words,
built before set-up's first hash.  There a working pebbler's counter drops
by exactly its budget each round, and an emitter resets its own to 2^j for
the next pebbler of its order.  The counter is handed to the fill loop
that both engines share, ``pebbler._fill``; set-up is one call of it.

Two variants share one layout, one set-up and one exhaustion test (the
base ``_InPlace``) and differ only in their step.  The speed-2 stepper
hard-codes its two-hashes-per-pebbler budget in the stepping loop.  The
optimal stepper draws each sub-pebbler's budget from the bit-segment rule:
split the countdown's bits into segments, one per working sub-pebbler
(ignoring the rightmost, which is emitting), each segment running from the
pebbler's own bit down to just above the next working pebbler's bit; the
budget is half the segment length, made integral by parity rounding.
A round visits only the working sub-pebblers: a set bit i (above the
emitter's) works exactly when bit i-1 is clear or bit i-1 is the emitter's,
so one mask of the countdown picks them out and idle pebblers cost nothing.

Storage convention: both steppers keep one (k+1)-slot array.  It holds
k+1 values only at the end of set-up, the extra one being the element the
free round 2^k emits; from then on slot k stays empty and at most k are
held, as the framework's ``storage()``.  A prover's engine waits at round
2^k, holding those k+1 values, until its first release, which runs the
free round as an ordinary step.  ``peek()`` reads slot 0, the value the
next step releases (None once exhausted).  The steppers do not count their
occupancy: ``storage()`` reads it off the slots between steps
(``len(z) - z.count(None)``), as the framework's ``storage()`` answers
for its runs, so every engine has one reader of held values and a round
pays only for its hashes, its bit walk and its checks.

Every check raises (none is an ``assert``, which ``python -O`` strips)
and sits where its value enters or is first used.  Exhaustion is read off
the countdown that each step reads anyway (c <= 0).  Widths are checked at
the boundaries, not per hash: the seed once at construction, through
``Owf.as_value`` (whose docstring states the value rule), and slot sizes
in ``restore``; one-way function outputs need no check, since ``owf`` makes
every ``owf.fn`` width-exact.  Every value hashed or emitted is therefore
of the function's width.

A state serializes as (variant, k, r, slots) and nothing else, in the one
layout that ``save`` states for both steppers (the blob stores r, read off
c); restoring reproduces the remaining output and hash-count streams
exactly.  The steppers hold nothing beyond (owf, c, slots) either
(``__slots__``, no ``__dict__``), apart from the optimal stepper's
``rem``, derived from (k, r) and never saved, so a state saved at any
round, before a prover's first release included, restores to every
release left.  The order k lies in 0..``schedule.MAX_K``, the range every
engine takes, checked at construction by ``schedule.check_order`` and in
``restore``; at k = 0 the one step is the free round, which releases the
seed.  ``restore`` accepts exactly the bytes ``save`` writes for the state
they decode to (its docstring states the rule), so a restored state holds
exactly the live state's values and saves back to the same blob.
"""

from array import array
from dataclasses import dataclass

from .owf import Owf
from .pebbler import DecodeError, ExhaustedError, _fill
from .schedule import MAX_K, check_order, optimal_remaining, speed2_remaining

IDLE = "idle"
HASHING = "hashing"
FIRST_OUTPUT = "first-output"


@dataclass(frozen=True)
class PebblerPhase:
    """One live sub-pebbler as decoded from the countdown."""

    index: int
    phase: str
    local_counter: int


def decode_states(k: int, c: int) -> list[PebblerPhase]:
    """Read the live sub-pebblers and their phases off the countdown bits.

    A sub-pebbler of order i is emitting its first output when its local
    counter is exactly 2^i (always the lowest set bit), still idle while the
    counter is at least 3*2^(i-1) (it holds only its seed), and hashing in
    between.
    """
    if not 0 < c < (1 << k):
        raise ValueError("countdown must satisfy 0 < c < 2^k")
    found = []
    for i in range(k - 1, -1, -1):
        if not c >> i & 1:
            continue
        local = c % (1 << (i + 1))
        if local == 1 << i:
            phase = FIRST_OUTPUT
        elif i >= 1 and local >= 3 << (i - 1):
            phase = IDLE
        else:
            phase = HASHING
        found.append(PebblerPhase(i, phase, local))
    return found


def segment_budgets(k: int, c: int) -> list[tuple[int, int]]:
    """Doubled hash budgets for the sub-pebblers that work this round.

    Returns (order, doubled budget) for every working sub-pebbler except the
    rightmost one, highest order first.  Each budget is the length of the
    pebbler's bit segment over two; bits of idle and emitting pebblers are
    absorbed into the segment of the working pebbler to their left.

    This is the reference statement of the rule: ``InPlaceOptimal.step``
    walks the same bits inline, lowest first, and a test checks its hash
    counts against these budgets round by round.
    """
    if not 0 < c < (1 << k):
        raise ValueError("countdown must satisfy 0 < c < 2^k")
    working, rest = [], c
    while rest:  # set bits only, highest first; rest becomes c mod 2^i
        i = rest.bit_length() - 1
        rest -= 1 << i
        if 0 < rest <= 1 << i >> 1:
            working.append(i)
    # each segment runs from bit i down to just above the next working bit
    return [(i, i - j) for i, j in zip(working, working[1:] + [-1])]


def _frontier(k: int, r: int, remaining) -> array:
    """The frontier counters at round r, from the family's remaining sum
    ``remaining(i, u)``: a set bit i of c = 2^(k+1) - r owes what its
    u = c mod 2^i set-up rounds left spend, plus one; a clear bit owes a
    whole set-up, 2^i."""
    c = (2 << k) - r
    return array("I", [remaining(i, c % (1 << i)) + 1 if c >> i & 1 else 1 << i
                       for i in range(k + 1)])


class _InPlace:
    """k+1 value slots and the countdown c = 2^(k+1) - r.  Construction runs
    the whole set-up as one fill of 2^k - 1 hashes, leaving
    f^(2^k - 2^i)(seed) in slot i; each step() returns (chain element,
    hashes spent) and counts c down by one.  The order k = len(z) - 1 and
    the round r = 2^(k+1) - c are read off that state, not stored."""

    __slots__ = ("owf", "z", "c")

    def __init__(self, owf: Owf, k: int, seed: bytes):
        check_order(k)
        self._build(owf, k, 1 << k, [None] * k + [owf.as_value(seed)])
        _fill(owf, self.z, 1 << k, (1 << k) - 1)  # all k+1 slots occupied

    def _build(self, owf: Owf, k: int, r: int, slots: list) -> array:
        """The one builder of a state, set up or restored: the state at round
        r whose slot list is slots, the k+1 values given, each kept where a
        live state holds it (``restore`` states the rule; at r = 2^k,
        set-up's start, every slot) and None elsewhere.  Returns the
        frontier the rule reads, ``_frontier(k, r, self.remaining)``;
        hashes nothing."""
        c = (2 << k) - r
        rem = _frontier(k, r, self.remaining)
        held = 0  # bit s is set when a live state holds slot s
        for i in range(k + 1):
            if c >> i & 1:
                held |= (2 << i) - (1 << rem[i].bit_length() - 1)
        # in place, so the list keeps its exact size (a comprehension's overallocates)
        slots[:] = [v if held >> s & 1 else None for s, v in enumerate(slots)]
        self.owf, self.c, self.z = owf, c, slots
        return rem

    @property
    def k(self) -> int:
        return len(self.z) - 1

    @property
    def r(self) -> int:
        return (2 << self.k) - self.c

    @property
    def exhausted(self) -> bool:
        return self.c <= 0

    def peek(self) -> bytes | None:
        """The value the next step releases, slot 0; None once exhausted."""
        return None if self.exhausted else self.z[0]

    def storage(self) -> int:
        """Values held, read off the slots, as the framework's ``storage()``."""
        return len(self.z) - self.z.count(None)


class InPlaceSpeed2(_InPlace):
    """Speed-2 pebbler: its step loop spends each pebbler's two hashes itself."""

    code = 2  # save()'s variant octet
    remaining = staticmethod(speed2_remaining)
    __slots__ = ()

    def step(self) -> tuple[bytes, int]:
        """Run round r: return (chain element, hashes spent)."""
        z, c = self.z, self.c
        if c <= 0:
            raise ExhaustedError("in-place speed-2 pebbler is exhausted")
        out = z[0]
        i = (c & -c).bit_length()  # one above the emitter's bit
        del z[0]  # the emitter's pinned values shift down to seed its children
        z.insert(i - 1, None)
        c >>= i
        q = i - 1
        hashes = 0
        fn = self.owf.fn
        while c:
            v = fn(z[i])
            hashes += 1
            if q:
                v = fn(v)
                hashes += 1
            z[q] = v
            # skip to the first clear bit above the lowest run of set bits
            n = c + (c & -c)
            n = (n & -n).bit_length() - 1
            c >>= n
            i += n
            q = i
        self.c -= 1
        return out, hashes


class InPlaceOptimal(_InPlace):
    """Optimal-schedule pebbler: budgets from the countdown's bit segments,
    parity-rounded per sub-pebbler, spent through the shared fill loop from
    each sub-pebbler's frontier counter."""

    code = 3
    remaining = staticmethod(optimal_remaining)
    __slots__ = ("rem",)

    def _build(self, owf: Owf, k: int, r: int, slots: list) -> None:
        """The shared builder, keeping its frontier as ``rem``: at set-up,
        before the fill's first hash."""
        self.rem = super()._build(owf, k, r, slots)

    def step(self) -> tuple[bytes, int]:
        """Run round r: return (chain element, hashes spent)."""
        z, c = self.z, self.c
        if c <= 0:
            raise ExhaustedError("in-place optimal pebbler is exhausted")
        low = c & -c  # the emitting sub-pebbler's bit
        j = low.bit_length() - 1
        out = z[0]
        del z[0]  # the emitter's pinned values shift down to seed its children
        z.insert(j, None)
        rem = self.rem
        rem[j] = low  # the next order-j sub-pebbler starts owing 2^j - 1
        # segment_budgets(k, c), walked lowest bit first over the working
        # sub-pebblers only: set bits whose next-lower bit is clear, plus the
        # bit just above the emitter.  Their slot blocks are disjoint, so the
        # order they fill in does not matter.
        hashes = 0
        below = -1  # the last working bit below, -1 for none
        work = (c ^ low) & (~(c << 1) | (low << 1))
        while work:
            low = work & -work
            work ^= low
            i = low.bit_length() - 1
            # parity of i plus the set-up rounds left, c mod 2^i; a working
            # bit is never bit 0 (that one always emits), so c's low bit is
            # the parity of c mod 2^i
            n = ((i + c) % 2 + i - below) // 2
            below = i
            if n:
                r_i = rem[i]
                _fill(self.owf, z, r_i, n)
                rem[i] = r_i - n
                hashes += n
        self.c = c - 1
        return out, hashes


STEPPERS = {"speed2": InPlaceSpeed2, "optimal": InPlaceOptimal}
_BY_CODE = {cls.code: cls for cls in STEPPERS.values()}


def save(state) -> bytes:
    """Serialize (variant, k, r, slots); everything else is recomputable.

    Layout: one variant octet, one k octet, four big-endian r octets, then
    the k+1 slots low index first, each a presence octet (1 present, 0
    absent) followed by the value, zero-filled when the slot is absent.
    Both steppers save this one layout.
    """
    head = bytes([state.code, state.k]) + state.r.to_bytes(4, "big")
    absent = bytes(state.owf.width + 1)
    return head + b"".join(absent if v is None else b"\x01" + v for v in state.z)


def restore(data: bytes, owf: Owf):
    """Rebuild an in-place pebbler from save() output (same owf required).

    Raises DecodeError unless the header is valid, r lies in 2^k..2^(k+1),
    the slot area is k+1 slots of ``owf.width`` values, and the blob is
    exactly what ``save`` writes for the state it decodes to: the presence
    flags are the slots a live state holds at round r, and every absent
    slot is zero-filled.  One presence rule serves both steppers: with
    c = 2^(k+1) - r, a live state holds, for each set bit i of c, the slots
    bitlen(rem[i]) - 1 through i, rem being ``_frontier(k, r, remaining)``
    for the stepper's family sum ``remaining``.  Reads only the width of
    ``owf`` and never hashes.
    """
    if len(data) < 6:
        raise DecodeError("truncated header")
    code, k = data[0], data[1]
    r = int.from_bytes(data[2:6], "big")
    cls = _BY_CODE.get(code)
    if cls is None:
        raise DecodeError(f"unknown variant code {code}")
    if k > MAX_K:
        raise DecodeError(f"order must be 0..{MAX_K}")
    if not (1 << k) <= r <= 1 << (k + 1):
        raise DecodeError("round counter out of range")
    size = owf.width + 1
    body = data[6:]
    if len(body) != (k + 1) * size:
        raise DecodeError("slot area has the wrong size")
    z = [None] * (k + 1)  # exact size, as a live state's (a comprehension overallocates)
    z[:] = [bytes(body[s * size + 1:(s + 1) * size]) for s in range(k + 1)]
    state = cls.__new__(cls)
    state._build(owf, k, r, z)
    if save(state) != data:
        raise DecodeError("slots do not match round r")
    return state
