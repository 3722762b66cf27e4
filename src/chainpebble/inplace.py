"""In-place pebblers: between rounds the whole state is a counter plus slots.

During the reversal stage, everything about the sub-pebblers running in
parallel can be read off the binary representation of the countdown
c = 2^(k+1) - r: each set bit i is a live sub-pebbler of order i, its
progress is c mod 2^(i+1), and its values sit in the slot block that ends at
index i.  The slot written next by a working pebbler is always the one just
vacated by the pebblers to its right, which is what makes a fixed array
suffice.  Its frontier is a closed form in i and c mod 2^i, not a table.

Two variants are provided.  The speed-2 stepper keeps k slots and hard-codes
its two-hashes-per-pebbler budget in the stepping loop.  The optimal stepper
keeps k+1 slots and draws each sub-pebbler's budget from the bit-segment
rule: split the countdown's bits into segments, one per working sub-pebbler
(ignoring the rightmost, which is emitting), each segment running from the
pebbler's own bit down to just above the next working pebbler's bit; the
budget is half the segment length, made integral by parity rounding.

Storage convention: a stepper holds k+1 values only at the end of set-up,
the extra one being the element the free round 2^k emits (speed-2's
``_pending``); from then on at most k, as the framework's ``storage()``.

Widths are checked at the boundaries, not per hash through ``evaluate``:
the seed once at construction, each one-way function output where it is
computed (in ``_fill``, which runs set-up and optimal steps, in the
speed-2 step loop, and for speed-2's first emission in ``restore``; all
call ``owf.fn`` directly), and slot sizes in ``restore``.  Every value
hashed or emitted is therefore of the function's width.

A state serializes as (variant, k, r, slots) and nothing else; restoring
reproduces the remaining output and hash-count streams exactly.
"""

from dataclasses import dataclass

from .owf import Owf, WidthError
from .pebbler import ExhaustedError
from .schedule import optimal_remaining

IDLE = "idle"
HASHING = "hashing"
FIRST_OUTPUT = "first-output"


class DecodeError(ValueError):
    """Serialized in-place state is malformed."""


def strip_zeros(c: int) -> tuple[int, int]:
    """Count and remove trailing 0-bits; c must be positive."""
    if c <= 0:
        raise ValueError("strip_zeros needs c > 0")
    n = (c & -c).bit_length() - 1
    return n, c >> n


def strip_ones(c: int) -> tuple[int, int]:
    """Count and remove trailing 1-bits; c must be nonnegative."""
    if c < 0:
        raise ValueError("strip_ones needs c >= 0")
    n = ((c + 1) & -(c + 1)).bit_length() - 1
    return n, c >> n


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


def _wrong_width(owf: Owf, v: bytes) -> WidthError:
    return WidthError(f"{owf.name} returned {len(v)} bytes, expected {owf.width}")


def _check_args(owf: Owf, k: int, seed: bytes) -> None:
    if k < 1:
        raise ValueError("in-place pebblers need k >= 1")
    if len(seed) != owf.width:
        raise WidthError(f"{owf.name} expects {owf.width} bytes, got {len(seed)}")


def _fill(owf: Owf, z: list, m: int, gap: int, n: int) -> None:
    """Spend n hashes on the frontier in slot m, which gap more complete.

    Completed slots stay pinned; each slot started must be empty.  With m = k,
    gap = 0 and n = 2^k - 1 on [None]*k + [seed] it runs the whole set-up.
    Calls ``owf.fn`` directly and raises WidthError on any output that is not
    of the function's width.  The other widths are checked where values
    enter: the seed at construction, slot sizes in ``restore``.
    """
    fn, width = owf.fn, owf.width
    v = z[m]
    for _ in range(n):
        if gap == 0:
            m -= 1
            gap = 1 << m
            if z[m] is not None:
                raise DecodeError("descended into an occupied slot")
        v = fn(v)
        if len(v) != width:
            raise _wrong_width(owf, v)
        z[m] = v
        gap -= 1


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


class InPlaceSpeed2:
    """Speed-2 pebbler for a length-2^k chain keeping k value slots.

    Construction runs the whole set-up stage, spending 2^k - 1 hashes and
    leaving slot i-1 holding f^(2^k - 2^i)(seed) for i = 1..k.  The element
    emitted by the free first round does not fit in the k slots, so it is
    kept as a cache, the (k+1)-th value held until round 2^k, that a restore
    recomputes with one hash from slot 0.  Each step() emits one chain
    element and reports the hashes spent.
    """

    variant = "speed2"

    def __init__(self, owf: Owf, k: int, seed: bytes):
        _check_args(owf, k, seed)
        self.owf = owf
        self.k = k
        y: list = [None] * k + [seed]
        _fill(owf, y, k, 0, (1 << k) - 1)
        self.z = y[1:]
        self._pending = y[0]  # first emission, recomputable as f(z[0])
        self.r = 1 << k

    @property
    def exhausted(self) -> bool:
        return self.r >= 1 << (self.k + 1)

    def step(self) -> tuple[bytes, int]:
        """Run round r: return (chain element, hashes spent)."""
        if self.exhausted:
            raise ExhaustedError("in-place speed-2 pebbler is exhausted")
        k, z, owf = self.k, self.z, self.owf
        if self.r == 1 << k:
            out = self._pending
            self._pending = None
            self.r += 1
            return out, 0
        out = z[0]
        c = (1 << (k + 1)) - self.r
        i, c = strip_zeros(c)
        z[:i] = z[1:i + 1]  # the emitter's pinned values seed its children
        i += 1
        c >>= 1
        q = i - 1
        hashes = 0
        fn, width = owf.fn, owf.width
        while c:
            v = fn(z[i])
            if len(v) != width:
                raise _wrong_width(owf, v)
            hashes += 1
            if q:
                v = fn(v)
                if len(v) != width:
                    raise _wrong_width(owf, v)
                hashes += 1
            z[q] = v
            n0, c = strip_zeros(c)
            n1, c = strip_ones(c)
            i += n0 + n1
            q = i
        self.r += 1
        return out, hashes


class InPlaceOptimal:
    """Optimal-schedule pebbler keeping k+1 value slots.

    Budgets come from the countdown's bit segments, parity-rounded per
    sub-pebbler; set-up and steps share one fill loop.  All k+1 slots are
    full only after set-up: round 2^k empties slot k for good.  Occupancy
    is tracked so the bounds can be checked by measurement, not assumed.
    """

    variant = "optimal"

    def __init__(self, owf: Owf, k: int, seed: bytes):
        _check_args(owf, k, seed)
        self.owf = owf
        self.k = k
        self.z = [None] * k + [seed]
        _fill(owf, self.z, k, 0, (1 << k) - 1)  # all k+1 slots occupied
        self.r = 1 << k
        self.max_occupied = k + 1

    @property
    def exhausted(self) -> bool:
        return self.r >= 1 << (self.k + 1)

    def step(self) -> tuple[bytes, int]:
        """Run round r: return (chain element, hashes spent)."""
        if self.exhausted:
            raise ExhaustedError("in-place optimal pebbler is exhausted")
        k, z, owf = self.k, self.z, self.owf
        c = (1 << (k + 1)) - self.r
        out = z[0]
        low = c & -c  # the emitting sub-pebbler's bit
        j = low.bit_length() - 1
        z[:j] = z[1:j + 1]  # its pinned values seed its children
        z[j] = None
        # segment_budgets(k, c), walked lowest bit first; the sub-pebblers'
        # slot blocks are disjoint, so the order they fill in does not matter
        hashes = 0
        below = -1  # the last working bit below, -1 for none
        rest = c ^ low
        while rest:
            low = rest & -rest
            rest ^= low
            u = c & (low - 1)  # set-up rounds left, this one included
            if u > low >> 1:
                continue  # idle: holds only its seed
            i = low.bit_length() - 1
            n = ((i + u) % 2 + i - below) // 2
            below = i
            if n:
                rem = optimal_remaining(i, u) + 1
                m = rem.bit_length() - 1
                _fill(owf, z, m, rem - (1 << m), n)
                hashes += n
        occupied = len(z) - z.count(None)
        if occupied > self.max_occupied:
            self.max_occupied = occupied
        self.r += 1
        return out, hashes


_VARIANT_CODES = {"speed2": 2, "optimal": 3}
_CODE_VARIANTS = {v: n for n, v in _VARIANT_CODES.items()}


def save(state) -> bytes:
    """Serialize (variant, k, r, slots); everything else is recomputable.

    Layout: one variant octet, one k octet, four big-endian r octets, then
    the slots low index first.  Speed-2 slots are raw values; optimal slots
    carry a presence octet (1 present, 0 absent) before the value bytes,
    absent slots zero-filled.
    """
    head = bytes([_VARIANT_CODES[state.variant], state.k]) + state.r.to_bytes(4, "big")
    width = state.owf.width
    if state.variant == "speed2":
        return head + b"".join(state.z)
    parts = []
    for v in state.z:
        parts.append(b"\x01" + v if v is not None else b"\x00" + bytes(width))
    return head + b"".join(parts)


def restore(data: bytes, owf: Owf):
    """Rebuild an in-place pebbler from save() output (same owf required)."""
    if len(data) < 6:
        raise DecodeError("truncated header")
    code, k = data[0], data[1]
    r = int.from_bytes(data[2:6], "big")
    variant = _CODE_VARIANTS.get(code)
    if variant is None:
        raise DecodeError(f"unknown variant code {code}")
    if k < 1:
        raise DecodeError("order must be >= 1")
    if not (1 << k) <= r <= 1 << (k + 1):
        raise DecodeError("round counter out of range")
    width = owf.width
    body = data[6:]
    if variant == "speed2":
        if len(body) != k * width:
            raise DecodeError("slot area has the wrong size")
        state = InPlaceSpeed2.__new__(InPlaceSpeed2)
        state.owf = owf
        state.k = k
        state.r = r
        state.z = [bytes(body[s * width:(s + 1) * width]) for s in range(k)]
        # the cached first emission is a pure function of slot 0
        state._pending = None
        if r == 1 << k:
            state._pending = owf.fn(state.z[0])
            if len(state._pending) != width:
                raise _wrong_width(owf, state._pending)
        return state
    if len(body) != (k + 1) * (width + 1):
        raise DecodeError("slot area has the wrong size")
    slots: list = []
    for s in range(k + 1):
        chunk = body[s * (width + 1):(s + 1) * (width + 1)]
        if chunk[0] == 1:
            slots.append(bytes(chunk[1:]))
        elif chunk[0] == 0:
            slots.append(None)
        else:
            raise DecodeError("bad presence flag")
    state = InPlaceOptimal.__new__(InPlaceOptimal)
    state.owf = owf
    state.k = k
    state.r = r
    state.z = slots
    state.max_occupied = len(slots) - slots.count(None)
    return state
