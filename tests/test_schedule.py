"""Schedule families, the exact half-integer identities, and work sequences."""

import math

import pytest
from hypothesis import given, strategies as st

from chainpebble.schedule import (
    FAMILIES,
    RULES,
    budget,
    format_halves,
    image_deficit,
    make_schedule,
    optimal_remaining,
    parity_round,
    speed2_remaining,
    unrounded_head,
    unrounded_optimal,
    unrounded_tail,
    work_sequence,
    work_sequence_half,
)

# head/tail halves of the active optimal budgets, doubled (3 means 3/2)
HEAD_FIXTURES = {
    2: [3],
    3: [4, 2],
    4: [5, 3, 2, 2],
    5: [6, 4, 3, 3, 2, 2, 2, 2],
    6: [7, 5, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2],
    7: [8, 6, 5, 5, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3,
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
}
TAIL_FIXTURES = {
    2: [3],
    3: [4, 4],
    4: [5, 3, 5, 5],
    5: [6, 4, 3, 3, 6, 4, 6, 6],
    6: [7, 5, 4, 4, 3, 3, 3, 3, 7, 5, 4, 4, 7, 5, 7, 7],
    7: [8, 6, 5, 5, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3,
        8, 6, 5, 5, 4, 4, 4, 4, 8, 6, 5, 5, 8, 6, 8, 8],
}


def test_speed2_fixture():
    t = make_schedule("speed2", 4)
    assert t == [0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 1]
    assert sum(t) == 15


def test_rushing_fixture():
    assert make_schedule("rushing", 4) == [0] * 14 + [15]


@pytest.mark.parametrize("family", FAMILIES)
def test_order_one_is_single_hash(family):
    assert make_schedule(family, 1) == [1]
    assert make_schedule(family, 0) == []


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_schedule("fibonacci", 3)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", range(21))
def test_budgets_sum_to_chain_length_minus_one(family, k):
    t = make_schedule(family, k)
    assert len(t) == (1 << k) - 1
    assert sum(t) == (1 << k) - 1
    assert all(x >= 0 for x in t)


@pytest.mark.parametrize("k", sorted(HEAD_FIXTURES))
def test_head_tail_fixtures(k):
    assert unrounded_head(k) == HEAD_FIXTURES[k]
    assert unrounded_tail(k) == TAIL_FIXTURES[k]
    assert len(unrounded_head(k)) == len(unrounded_tail(k)) == 1 << (k - 2)


def test_head_tail_reject_small_orders():
    for fn in (unrounded_head, unrounded_tail, unrounded_optimal):
        with pytest.raises(ValueError):
            fn(1)


def test_unrounded_fixtures():
    assert unrounded_optimal(2) == [0, 3, 3]
    assert unrounded_optimal(3) == [0, 0, 0, 4, 2, 4, 4]  # already integral
    assert sum(unrounded_optimal(6)) == 2 * 63  # doubled exact sum


@pytest.mark.parametrize("k", range(2, 15))
def test_optimal_budget_is_rounded_unrounded_schedule(k):
    want = parity_round(unrounded_optimal(k), k)
    assert [budget("optimal", k, r) for r in range(1, 1 << k)] == want


def _literal_schedule(family, k):
    """The simple families as whole lists, straight from their definitions."""
    n = 1 << k
    if k == 0:
        return []
    if family == "rushing":
        return [0] * (n - 2) + [n - 1]
    if family == "speed1":
        return [1] * (n - 1)
    return [0] * (n // 2 - 1) + [2] * (n // 2 - 1) + [1]  # speed2


@pytest.mark.parametrize("family", ["rushing", "speed1", "speed2"])
@pytest.mark.parametrize("k", range(13))
def test_simple_budgets_match_literal_definitions(family, k):
    want = _literal_schedule(family, k)
    assert [budget(family, k, r) for r in range(1, 1 << k)] == want


@pytest.mark.parametrize("family", FAMILIES)
def test_budget_rejects_rounds_outside_setup(family):
    for k, r in [(0, 1), (3, 0), (3, 8), (3, -1), (-1, 1)]:
        with pytest.raises(ValueError):
            budget(family, k, r)


def test_rule_table_covers_exactly_the_families():
    # budget() and every Pebbler dispatch through this table
    assert tuple(RULES) == FAMILIES


def test_budget_rejects_unknown_family():
    with pytest.raises(ValueError):
        budget("fibonacci", 3, 5)
    with pytest.raises(ValueError):
        make_schedule("fibonacci", 0)


@pytest.mark.parametrize("family,i", [pytest.param("optimal", i, id=str(i)) for i in range(1, 17)]
                         + [pytest.param("speed2", i, id=f"speed2-{i}") for i in range(11)])
def test_optimal_remaining_matches_schedule_prefix_sums(family, i):
    # each family's remaining sum is the sum of its last u budgets, every u;
    # the optimal cases keep their ids, the order alone
    remaining = {"optimal": optimal_remaining, "speed2": speed2_remaining}[family]
    n = 1 << i
    done = 0  # prefix sum over the first n - 1 - u rounds
    for u, t in zip(range(n - 1, -1, -1), [0] + make_schedule(family, i)):
        done += t
        assert remaining(i, u) == n - 1 - done, (i, u)


def test_parity_round_spot_values():
    halves = unrounded_optimal(4)
    rounded = parity_round(halves, 4)
    assert halves[7] == 5 and rounded[7] == 2  # round 8: 5/2 floors
    assert halves[14] == 5 and rounded[14] == 3  # round 15: 5/2 gains the half


@given(st.lists(st.integers(0, 40), min_size=1, max_size=50), st.integers(0, 12))
def test_parity_round_fixes_integral_entries(values, k):
    doubled = [2 * v for v in values]
    assert parity_round(doubled, k) == values


def test_work_sequence_fixtures():
    assert work_sequence("rushing", 4) == [1, 0, 3, 0, 1, 0, 7, 0, 1, 0, 3, 0, 1, 0, 0]
    assert work_sequence("rushing", 4)[23 - 17] == 7  # round 23 of 31
    assert work_sequence("optimal", 4) == [1, 1, 2, 2, 2, 2, 2, 0, 1, 1, 2, 0, 1, 0, 0]
    assert work_sequence("speed2", 4) == [1, 2, 1, 2, 3, 2, 1, 0, 1, 2, 1, 0, 1, 0, 0]
    assert work_sequence("speed1", 4) == [3, 2, 2, 1, 2, 1, 1, 0, 2, 1, 1, 0, 1, 0, 0]
    for family in FAMILIES:
        assert work_sequence(family, 0) == []
        assert work_sequence(family, 1) == [0]


def test_work_sequence_half_fixtures():
    assert work_sequence_half(1) == [0]
    assert work_sequence_half(2) == [2, 0, 0]
    assert work_sequence_half(3) == [2, 3, 3, 0, 2, 0, 0]


def test_key_equation_breaks_under_mutation():
    # constancy is elementwise: perturbing any one entry must break it
    k = 5
    active = unrounded_head(k) + unrounded_tail(k)
    shifted = [0] + work_sequence_half(k - 1)
    sums = [a + b for a, b in zip(active, shifted)]
    assert all(s == k + 1 for s in sums)
    for pos in range(len(sums)):
        broken = list(sums)
        broken[pos] += 1
        assert not all(s == k + 1 for s in broken)


def test_parity_rounding_work_sequence_even_orders_only():
    # Rounding the unrounded work sequence with the same parity rule matches
    # the integer-schedule work sequence for even k (and trivially k=1), but
    # not for odd k >= 3: observed, not assumed.
    for k in range(1, 13):
        matches = parity_round(work_sequence_half(k), k) == work_sequence("optimal", k)
        assert matches == (k % 2 == 0 or k == 1), k


def test_image_deficit_recurrence():
    assert image_deficit(0) == 0.0
    assert math.isclose(image_deficit(1), math.exp(-1), abs_tol=1e-12)
    # independent recomputation: strictly increasing, below 1, up to n = 10^4
    d = 0.0
    values = [0.0]
    for n in range(1, 10001):
        nxt = math.exp(-1.0 + d)
        assert d < nxt < 1.0, n
        d = nxt
        values.append(d)
    for n in (2, 17, 500, 10000):
        assert image_deficit(n) == values[n]


def test_format_halves():
    assert format_halves([5, 3, 2, 2]) == "5/2,3/2,1,1"
    assert format_halves([0, 4]) == "0,2"
