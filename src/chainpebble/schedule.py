"""Hash budgets per round for binary pebbling, and their exact analysis.

A pebbler of order k reverses a length-2^k chain over 2^(k+1)-1 rounds; a
schedule fixes how many hashes it spends in each of its 2^k-1 set-up rounds,
always summing to 2^k-1.  The family's raw rule in ``RULES`` gives one
round's budget in O(1), so a pebbler need not store its schedule and calls
it every round; ``budgets`` yields them all in turn and ``make_schedule``
lists them.  Each checks its arguments once, the order through
``check_order``, the one statement of the orders every engine takes
(0..``MAX_K``), before it calls the rule.  Four families are implemented:

- ``rushing``:  do nothing until the last set-up round, then hash flat out;
- ``speed1``:   one hash per set-up round;
- ``speed2``:   idle for the first half, then two hashes per round;
- ``optimal``:  idle for the first half, then the closed-form budgets that
  attain the worst-case work bound (``checks.BOUNDS`` states each family's).

The optimal family also has a recursive construction over half-integers.
Half-integer sequences are stored as doubled integers so all arithmetic stays
exact: a stored 3 means 3/2.  All functions here are pure.
"""

import math
from typing import Iterator

FAMILIES = ("rushing", "speed1", "speed2", "optimal")

# The orders every engine takes are 0..MAX_K, refused otherwise before any
# hash.  Two limits meet at 30: ``inplace.save`` stores the round counter,
# up to 2^(k+1), in four octets, and ``pebbler._fill`` hands the md5 kernel
# a share of up to 2^(k-1) hashes as a C int.  Raising MAX_K needs both
# widened (a save header that sizes the counter by k, and a kernel that
# splits a share of 2^31 or more).
MAX_K = 30


def _optimal(k: int, r: int) -> int:
    s = (1 << k) - r  # set-up rounds left, this one included
    if s > r:  # r < 2^k / 2: the idle first half
        return 0
    # parity_round of the explicit doubled budget, with 2r mod 2^b as 2r & (2^b - 1)
    # and the halving as a shift: the numerator is at least 1
    return (k + 1 + ((k + r) & 1) - ((r << 1) & ((1 << s.bit_length()) - 1)).bit_length()) >> 1


# each family's raw O(1) rule: the budget of set-up round r for order k,
# unchecked, so that a caller that checks once can call it every round
RULES = {
    "rushing": lambda k, r: (1 << k) - 1 if r == (1 << k) - 1 else 0,
    "speed1": lambda k, r: 1,
    "speed2": lambda k, r: 0 if r < 1 << k >> 1 else 2 if r < (1 << k) - 1 else 1,
    "optimal": _optimal,
}


def check_order(k: int) -> None:
    """Refuse, with ValueError, an order k that no engine takes."""
    if not 0 <= k <= MAX_K:
        raise ValueError(f"order k must be 0..{MAX_K}")


def _checked_rule(family: str, k: int):
    """The family's raw rule, once k and then the family are checked."""
    check_order(k)
    if family not in RULES:
        raise ValueError(f"unknown schedule family {family!r}")
    return RULES[family]


def budgets(family: str, k: int) -> Iterator[int]:
    """Per-round budgets t_1..t_{2^k-1} for the set-up stage of order k, one
    at a time; the arguments are checked at the call."""
    rule = _checked_rule(family, k)
    return (rule(k, r) for r in range(1, 1 << k))


def make_schedule(family: str, k: int) -> list[int]:
    """``budgets`` as one list."""
    return list(budgets(family, k))


def unrounded_head(k: int) -> list[int]:
    """First half of the active optimal budgets, doubled (k >= 2).

    The head of order k is the head of order k-1 raised by one half,
    extended with a run of ones.
    """
    if k < 2:
        raise ValueError("unrounded schedules start at k = 2")
    if k == 2:
        return [3]
    return [u + 1 for u in unrounded_head(k - 1)] + [2] * (1 << (k - 3))


def unrounded_tail(k: int) -> list[int]:
    """Second half of the active optimal budgets, doubled (k >= 2).

    The tail of order k is the raised head of order k-1 followed by the
    raised tail of order k-1: the construction is self-similar.
    """
    if k < 2:
        raise ValueError("unrounded schedules start at k = 2")
    if k == 2:
        return [3]
    return [u + 1 for u in unrounded_head(k - 1)] + [v + 1 for v in unrounded_tail(k - 1)]


def unrounded_optimal(k: int) -> list[int]:
    """Exact optimal schedule over half-integers, doubled (k >= 2).

    Computed twice -- by the recursive head/tail construction and by the
    explicit formula -- which must agree; a mismatch is an implementation bug.
    """
    if k < 2:
        raise ValueError("unrounded schedules start at k = 2")
    n = 1 << k
    recursive = [0] * (n // 2 - 1) + unrounded_head(k) + unrounded_tail(k)
    explicit = [0] * (n // 2 - 1) + [
        k + 1 - ((2 * r) % (1 << (n - r).bit_length())).bit_length() for r in range(n // 2, n)
    ]
    if recursive != explicit:
        raise RuntimeError("recursive and explicit constructions disagree")
    return recursive


def optimal_remaining(i: int, u: int) -> int:
    """Sum of the last u budgets of make_schedule("optimal", i), in O(1).

    Doubled and unrounded, the s-th last budget is i+1 when s is a power of
    two, else i - bitlen(2^bitlen(s) - s).  Summing bit lengths in closed
    form gives, with b = bitlen(u), w = 2^b - u and m = bitlen(w - 1), the
    doubled sum (i+3-b)*2^b + w*(m-i) - 2^m - 2, which parity rounding
    halves up for even i and down for odd i.  ``inplace._frontier`` calls
    it to build the optimal stepper's frontier counters from (k, r).
    """
    if u > 1 << i >> 1:
        return (1 << i) - 1  # still idle: the whole set-up is owed
    b = u.bit_length()
    w = (1 << b) - u
    m = (w - 1).bit_length()
    return (((i + 3 - b) << b) + w * (m - i) - (1 << m) - 1 - i % 2) >> 1


def speed2_remaining(i: int, u: int) -> int:
    """Sum of the last u budgets of make_schedule("speed2", i), in O(1).

    The last set-up round spends one hash and the 2^(i-1) - 1 before it two
    each, so the sum is 0 at u = 0, 2u - 1 for 0 < u <= 2^(i-1), and the
    whole set-up, 2^i - 1, beyond.  ``inplace._frontier`` calls it, as it
    calls ``optimal_remaining``, to build the speed-2 stepper's frontier.
    """
    return min(2 * u, 1 << i) - 1 if u else 0


def parity_round(halves: list[int], k: int) -> list[int]:
    """Round a doubled half-integer schedule to integers.

    Entry r gains a half exactly when k+r is odd, then is floored; integral
    entries pass through unchanged.
    """
    return [((k + r) % 2 + d) // 2 for r, d in enumerate(halves, 1)]


def _work(schedules) -> list[int]:
    """The work recurrence over the schedules of orders 0..k-1: the child
    started last runs its set-up budgets on top of the previous work
    sequence, then a free round, then the previous work sequence again."""
    w: list[int] = []
    for t in schedules:
        w = [a + b for a, b in zip(t, w)] + [0] + w
    return w


def work_sequence(family: str, k: int) -> list[int]:
    """Hashes per round over the last 2^k-1 rounds of an order-k pebbler."""
    return _work(make_schedule(family, order) for order in range(k))


def work_sequence_half(k: int) -> list[int]:
    """Unrounded optimal work sequence, doubled; same recurrence, exact.
    Orders 0 and 1 are already integral."""
    return _work([2] * order if order <= 1 else unrounded_optimal(order) for order in range(k))


def key_equation_holds(k: int) -> bool:
    """Exact no-gaps check for the optimal schedule (k >= 2).

    The active unrounded budgets, shifted by the previous order's unrounded
    work, must be the constant (k+1)/2: every output round spends the
    worst-case minimum exactly.
    """
    if k < 2:
        raise ValueError("key equation is defined for k >= 2")
    active = unrounded_head(k) + unrounded_tail(k)
    shifted = [0] + work_sequence_half(k - 1)
    return all(a + b == k + 1 for a, b in zip(active, shifted, strict=True))


def image_deficit(n: int) -> float:
    """Expected fraction of the value space missing from the n-th iterate image.

    For a random length-preserving function the image shrinks with each
    iteration; the deficit obeys d_0 = 0, d_n = exp(-1 + d_{n-1}).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    d = 0.0
    for _ in range(n):
        d = math.exp(-1.0 + d)
    return d
