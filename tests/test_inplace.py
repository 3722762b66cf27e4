"""In-place pebblers: bit tricks, counter decoding, and framework equivalence."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from chainpebble.inplace import (
    FIRST_OUTPUT,
    HASHING,
    IDLE,
    DecodeError,
    InPlaceOptimal,
    InPlaceSpeed2,
    decode_states,
    restore,
    save,
    segment_budgets,
    strip_ones,
    strip_zeros,
)
from chainpebble.owf import Owf, WidthError, builtin, evaluate, iterate
from chainpebble.pebbler import ExhaustedError, Pebbler
from chainpebble.schedule import unrounded_optimal, work_sequence

MIX = builtin("testmix64")
MD5 = builtin("md5")
SEED = bytes.fromhex("0123456789abcdef")


def reversal_stream(family, k, seed=SEED, owf=MIX):
    """Framework (output, hashes) pairs over the last 2^k rounds."""
    p = Pebbler(owf, family, k, seed)
    for _ in range((1 << k) - 1):
        p.step()
    pairs = []
    for _ in range(1 << k):
        res = p.step()
        pairs.append((res.output, res.hashes))
    return pairs


def counting(owf):
    """Same function, but counts evaluations."""
    calls = [0]

    def fn(v):
        calls[0] += 1
        return owf.fn(v)

    return Owf(owf.name, owf.width, fn), calls


# -- bit manipulation ---------------------------------------------------------

def test_strip_zeros_examples():
    assert strip_zeros(360) == (3, 45)
    assert strip_zeros(1) == (0, 1)
    with pytest.raises(ValueError):
        strip_zeros(0)


def test_strip_ones_examples():
    assert strip_ones(45) == (1, 22)
    assert strip_ones(44) == (0, 44)
    assert strip_ones(0) == (0, 0)


@given(st.integers(1, 2**40))
def test_strip_zeros_reassembles(c):
    n, rest = strip_zeros(c)
    assert rest & 1
    assert rest << n == c


@given(st.integers(0, 2**40))
def test_strip_ones_reassembles(c):
    n, rest = strip_ones(c)
    assert rest & 1 == 0
    assert (rest << n) | ((1 << n) - 1) == c


# -- counter decoding ---------------------------------------------------------

def test_decode_fixture_360():
    got = [(p.index, p.phase) for p in decode_states(9, 360)]
    assert got == [(8, HASHING), (6, IDLE), (5, HASHING), (3, FIRST_OUTPUT)]


def test_decode_fixture_359():
    got = [(p.index, p.phase) for p in decode_states(9, 359)]
    assert got == [(8, HASHING), (6, IDLE), (5, HASHING),
                   (2, IDLE), (1, IDLE), (0, FIRST_OUTPUT)]


def test_decode_rejects_out_of_range():
    for c in (0, 512, 700):
        with pytest.raises(ValueError):
            decode_states(9, c)


@given(st.integers(1, 11), st.data())
def test_lowest_set_bit_is_first_output(k, data):
    c = data.draw(st.integers(1, (1 << k) - 1))
    states = decode_states(k, c)
    lowest = min(p.index for p in states)
    by_index = {p.index: p for p in states}
    assert by_index[lowest].phase == FIRST_OUTPUT
    assert by_index[lowest].local_counter == 1 << lowest
    for p in states:
        assert p.local_counter == c % (1 << (p.index + 1))


def test_segment_budget_fixtures():
    assert segment_budgets(9, 360) == [(8, 3), (5, 6)]  # budgets 3/2 and 3
    assert sum(d for _, d in segment_budgets(9, 360)) == 9  # 9/2 in total
    assert segment_budgets(2, 3) == [(1, 2)]
    assert segment_budgets(2, 2) == []


@pytest.mark.parametrize("k", range(1, 11))
def test_decode_consistent_with_framework(k):
    p = Pebbler(MIX, "optimal", k, SEED)
    for _ in range(1 << k):
        p.step()
    for r in range((1 << k) + 1, 1 << (k + 1)):
        c = (1 << (k + 1)) - r
        live = p.live_pebblers()
        decoded = decode_states(k, c)
        assert [d.index for d in decoded] == [i for i, _ in live]
        for d, (i, rho) in zip(decoded, live):
            assert d.local_counter == (1 << (i + 1)) - rho
            if rho == 1 << i:
                want = FIRST_OUTPUT
            elif i >= 1 and rho <= 1 << (i - 1):
                want = IDLE  # holds only its seed at the start of this round
            else:
                want = HASHING
            assert d.phase == want, (k, r, i, rho)
        p.step()


@pytest.mark.parametrize("k", range(1, 13))
def test_optimal_step_walks_segment_budgets(k):
    # step walks the countdown bits inline; segment_budgets is the reference
    sto = InPlaceOptimal(MIX, k, SEED)
    assert sto.step()[1] == 0  # round 2^k is free
    for r in range((1 << k) + 1, 1 << (k + 1)):
        c = (1 << (k + 1)) - r
        want = sum(((i + c % (1 << i)) % 2 + doubled) // 2
                   for i, doubled in segment_budgets(k, c))
        assert sto.step()[1] == want, (k, r)


@pytest.mark.parametrize("k", range(2, 11))
def test_budgets_equal_unrounded_schedule(k):
    for c in range(1, 1 << k):
        for i, doubled in segment_budgets(k, c):
            rho = (1 << (i + 1)) - c % (1 << (i + 1))
            halves = [2] if i == 1 else unrounded_optimal(i)
            assert doubled == halves[rho - 1], (k, c, i)


# -- speed-2 stepper ----------------------------------------------------------

def test_speed2_smallest_order():
    st2 = InPlaceSpeed2(MIX, 1, SEED)
    assert st2.z == [SEED]
    assert st2.step() == (evaluate(MIX, SEED), 0)
    assert st2.step() == (SEED, 0)
    assert st2.exhausted
    with pytest.raises(ExhaustedError):
        st2.step()


def test_speed2_setup_layout():
    st2 = InPlaceSpeed2(MIX, 4, SEED)
    assert st2.z == [iterate(MIX, SEED, 14), iterate(MIX, SEED, 12),
                     iterate(MIX, SEED, 8), SEED]


def test_speed2_setup_hash_total():
    for k in (1, 3, 6):
        fn, calls = counting(MIX)
        InPlaceSpeed2(fn, k, SEED)
        assert calls[0] == (1 << k) - 1


@pytest.mark.parametrize("k", range(1, 13))
def test_speed2_equivalence(k):
    st2 = InPlaceSpeed2(MIX, k, SEED)
    got = [st2.step() for _ in range(1 << k)]
    assert got == reversal_stream("speed2", k)
    assert [h for _, h in got] == [0] + work_sequence("speed2", k)


def test_speed2_lifetime_hash_total():
    # whole lifetime, set-up plus reversal, costs the same as the framework
    k = 6
    fn, calls = counting(MIX)
    st2 = InPlaceSpeed2(fn, k, SEED)
    for _ in range(1 << k):
        st2.step()
    assert calls[0] == (1 << k) - 1 + sum(work_sequence("speed2", k))


def test_speed2_slot_handoff_at_round_664():
    # order 9, countdown 360: the emitter's freed slot is reused at once by
    # the working pebbler above it, while the top pebbler advances in place
    st9 = InPlaceSpeed2(MIX, 9, SEED)
    while st9.r < 664:
        st9.step()
    before = list(st9.z)
    out, hashes = st9.step()
    assert out == before[0]
    assert hashes == 4
    assert st9.z[:3] == before[1:4]  # children inherit the emitter's values
    assert st9.z[3] == evaluate(MIX, evaluate(MIX, before[4]))  # freed, reused
    assert st9.z[4:7] == before[4:7]
    assert st9.z[7] == evaluate(MIX, evaluate(MIX, before[7]))
    assert st9.z[8] == before[8]


# -- optimal stepper ----------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 11))
def test_optimal_equivalence(k):
    sto = InPlaceOptimal(MIX, k, SEED)
    got = [sto.step() for _ in range(1 << k)]
    assert got == reversal_stream("optimal", k)
    assert [h for _, h in got] == [0] + work_sequence("optimal", k)
    assert sto.max_occupied == k + 1


def test_optimal_first_round_outputs_pinned_slot():
    sto = InPlaceOptimal(MIX, 4, SEED)
    assert sto.z == [iterate(MIX, SEED, 16 - (1 << m)) for m in range(5)]
    out, hashes = sto.step()
    assert out == iterate(MIX, SEED, 15) and hashes == 0


@pytest.mark.parametrize("k", range(1, 11))
def test_optimal_holds_k_values_after_setup(k):
    # k+1 values only at the end of set-up; the extra one is emitted in
    # round 2^k, after which slot k stays empty
    sto = InPlaceOptimal(MIX, k, SEED)
    assert len(sto.z) - sto.z.count(None) == k + 1
    for _ in range(1 << k):
        sto.step()
        assert sto.z[k] is None, (k, sto.r)
        assert len(sto.z) - sto.z.count(None) <= k, (k, sto.r)


def _optimal_reversal_peak(k):
    tracemalloc.start()
    try:
        sto = InPlaceOptimal(MIX, k, SEED)
        for _ in range(1 << k):
            sto.step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_optimal_memory_flat_in_k():
    # set-up plus the whole reversal keeps no O(2^k) tables or lists
    small, large = _optimal_reversal_peak(8), _optimal_reversal_peak(14)
    assert large < 4 * 1024, large
    assert large - small < 1024, (small, large)


def _widening(owf):
    """Same width on paper, but fn returns one byte too many."""
    return Owf(owf.name, owf.width, lambda v: owf.fn(v) + b"\x00")


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_inplace_rejects_seed_of_wrong_width(cls):
    fn, calls = counting(MD5)
    with pytest.raises(WidthError):
        cls(fn, 4, bytes(15))
    assert calls[0] == 0  # checked before any hashing


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_inplace_rejects_owf_that_changes_width_in_setup(cls):
    with pytest.raises(WidthError):
        cls(_widening(MD5), 4, bytes(16))


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_inplace_step_rejects_owf_that_changes_width(cls):
    # a state built with the right function, resumed with a widening one
    base = cls(MD5, 4, bytes(16))
    base.step()
    resumed = restore(save(base), _widening(MD5))
    with pytest.raises(WidthError):
        while True:
            resumed.step()


def test_restore_rejects_owf_that_changes_width():
    # at round 2^k a speed-2 restore recomputes the first emission from slot 0
    blob = save(InPlaceSpeed2(MD5, 4, bytes(16)))
    with pytest.raises(WidthError):
        restore(blob, _widening(MD5))


def test_inplace_rejects_order_zero():
    with pytest.raises(ValueError):
        InPlaceSpeed2(MIX, 0, SEED)
    with pytest.raises(ValueError):
        InPlaceOptimal(MIX, 0, SEED)


# -- serialization ------------------------------------------------------------

def test_save_layout_sizes():
    st2 = InPlaceSpeed2(MIX, 5, SEED)
    assert len(save(st2)) == 6 + 5 * 8
    sto = InPlaceOptimal(MIX, 5, SEED)
    assert len(save(sto)) == 6 + 6 * (8 + 1)


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_save_restore_every_boundary(cls):
    k = 6
    base = cls(MIX, k, SEED)
    blobs = [save(base)]
    stream = []
    for _ in range(1 << k):
        stream.append(base.step())
        blobs.append(save(base))
    for at, blob in enumerate(blobs[:-1]):
        st2 = restore(blob, MIX)
        remaining = [st2.step() for _ in range((1 << k) - at)]
        assert remaining == stream[at:], at


def test_restore_rejects_malformed():
    good = save(InPlaceSpeed2(MIX, 3, SEED))
    with pytest.raises(DecodeError):
        restore(good[:4], MIX)
    with pytest.raises(DecodeError):
        restore(good + b"x", MIX)
    with pytest.raises(DecodeError):
        restore(bytes([99]) + good[1:], MIX)
    bad_round = good[:2] + (1).to_bytes(4, "big") + good[6:]
    with pytest.raises(DecodeError):
        restore(bad_round, MIX)
    opt = save(InPlaceOptimal(MIX, 3, SEED))
    with pytest.raises(DecodeError):
        restore(opt[:6] + b"\x07" + opt[7:], MIX)


def test_restore_flipped_presence_flag_fails_loudly():
    # slot 2 is empty at round 45; marking it present makes the next descent
    # land on an occupied slot, which must raise even under python -O
    sto = InPlaceOptimal(MIX, 5, bytes(8))
    while sto.r < 45:
        sto.step()
    blob = bytearray(save(sto))
    flag = 6 + 2 * (8 + 1)  # after the header, a presence octet + 8 bytes per slot
    assert sto.z[2] is None and blob[flag] == 0
    blob[flag] = 1
    tampered = restore(bytes(blob), MIX)
    with pytest.raises(DecodeError):
        tampered.step()


def test_tampered_slot_changes_stream():
    k = 4
    reference = InPlaceSpeed2(MIX, k, SEED)
    clean = [reference.step() for _ in range(1 << k)]
    blob = bytearray(save(InPlaceSpeed2(MIX, k, SEED)))
    blob[-1] ^= 0x40  # corrupt one slot byte
    tampered = restore(bytes(blob), MIX)
    assert [tampered.step() for _ in range(1 << k)] != clean


@pytest.mark.parametrize("cls,max_k", [(InPlaceSpeed2, 12), (InPlaceOptimal, 10)])
def test_state_only_random_boundaries(cls, max_k):
    rng = random.Random(7)
    for k in (2, max_k // 2, max_k):
        base = cls(MIX, k, SEED)
        blobs = [save(base)]
        stream = []
        for _ in range(1 << k):
            stream.append(base.step())
            blobs.append(save(base))
        for at in sorted(rng.sample(range(1 << k), min(20, 1 << k))):
            st2 = restore(blobs[at], MIX)
            remaining = [st2.step() for _ in range((1 << k) - at)]
            assert remaining == stream[at:], (k, at)
