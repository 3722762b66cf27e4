"""In-place pebblers: counter decoding, framework equivalence, save and restore."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from chainpebble import checks
from chainpebble.checks import POSITION, closed_form_blob
from chainpebble.inplace import (
    FIRST_OUTPUT,
    HASHING,
    IDLE,
    DecodeError,
    InPlaceOptimal,
    InPlaceSpeed2,
    STEPPERS,
    decode_states,
    restore,
    save,
    segment_budgets,
)
from chainpebble.owf import WidthError, builtin, evaluate, iterate
from chainpebble.pebbler import ExhaustedError, Pebbler, reverse_oracle
from chainpebble.protocol import Prover, Verifier
from chainpebble.schedule import FAMILIES, optimal_remaining, work_sequence
from harness import counting, peak_bytes, widening

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
        for decode in (decode_states, segment_budgets):
            with pytest.raises(ValueError):
                decode(9, c)


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


# -- speed-2 stepper ----------------------------------------------------------

def test_speed2_smallest_order():
    st2 = InPlaceSpeed2(MIX, 1, SEED)
    assert st2.z == [evaluate(MIX, SEED), SEED]
    assert st2.step() == (evaluate(MIX, SEED), 0)
    assert st2.step() == (SEED, 0)
    assert st2.exhausted
    with pytest.raises(ExhaustedError):
        st2.step()


def test_speed2_setup_layout():
    st2 = InPlaceSpeed2(MIX, 4, SEED)
    assert st2.z == [iterate(MIX, SEED, 16 - (1 << m)) for m in range(5)]


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
    most = sto.storage()  # after set-up
    got = []
    for _ in range(1 << k):
        got.append(sto.step())
        most = max(most, sto.storage())
    assert got == reversal_stream("optimal", k)
    assert [h for _, h in got] == [0] + work_sequence("optimal", k)
    assert most == k + 1


def test_optimal_first_round_outputs_pinned_slot():
    sto = InPlaceOptimal(MIX, 4, SEED)
    assert sto.z == [iterate(MIX, SEED, 16 - (1 << m)) for m in range(5)]
    out, hashes = sto.step()
    assert out == iterate(MIX, SEED, 15) and hashes == 0


@pytest.mark.parametrize("cls,k", [
    *(pytest.param(InPlaceOptimal, k, id=str(k)) for k in range(1, 11)),
    *(pytest.param(InPlaceSpeed2, k, id=f"speed2-{k}") for k in range(1, 11)),
])
def test_optimal_holds_k_values_after_setup(cls, k):
    # both steppers: k+1 values only at the end of set-up; the extra one is
    # emitted in round 2^k, after which slot k stays empty
    sto = cls(MIX, k, SEED)
    assert sto.storage() == k + 1
    for _ in range(1 << k):
        sto.step()
        assert sto.z[k] is None, (k, sto.r)
        assert sto.storage() <= k, (k, sto.r)


def test_stepper_storage_is_the_frameworks():
    # one reader of held values for every engine: before every reversal
    # round and after the last, a stepper's storage() is the framework's
    for family, cls in STEPPERS.items():
        for k in range(11):
            state, p = cls(MIX, k, SEED), Pebbler(MIX, family, k, SEED)
            p.finish_setup()
            while True:
                assert state.storage() == p.storage(), (family, k, state.r)
                if state.exhausted:
                    break
                state.step()
                p.step()
            assert p.exhausted


def _optimal_reversal(k):
    sto = InPlaceOptimal(MIX, k, SEED)
    for _ in range(1 << k):
        sto.step()


def test_optimal_memory_flat_in_k():
    # set-up plus the whole reversal keeps no O(2^k) tables or lists
    small = peak_bytes(lambda: _optimal_reversal(8))
    large = peak_bytes(lambda: _optimal_reversal(14))
    assert large < 4 * 1024, large
    assert large - small < 1024, (small, large)


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_inplace_rejects_seed_of_wrong_width(cls):
    fn, calls = counting(MD5)
    with pytest.raises(WidthError):
        cls(fn, 4, bytes(15))
    assert calls[0] == 0  # checked before any hashing


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_inplace_rejects_owf_that_changes_width_in_setup(cls):
    with pytest.raises(WidthError):
        cls(widening(MD5), 4, bytes(16))


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_inplace_step_rejects_owf_that_changes_width(cls):
    # a state built with the right function, resumed with a widening one
    base = cls(MD5, 4, bytes(16))
    base.step()
    resumed = restore(save(base), widening(MD5))
    with pytest.raises(WidthError):
        while True:
            resumed.step()


def test_restore_makes_no_owf_call():
    # restore reads only the function's width, at every round of both steppers
    fn, calls = counting(MIX)
    for cls in (InPlaceSpeed2, InPlaceOptimal):
        state = cls(MIX, 5, SEED)
        while True:
            restore(save(state), fn)
            if state.exhausted:
                break
            state.step()
    assert calls[0] == 0


def test_inplace_order_zero_is_the_free_round_alone():
    # k = 0: set-up spends nothing and the one step releases the seed for
    # free; a save before and after it restores to the same stream
    fn, calls = counting(MIX)
    for cls in (InPlaceSpeed2, InPlaceOptimal):
        state = cls(fn, 0, SEED)
        blobs = [save(state)]
        assert state.peek() == SEED
        assert state.step() == (SEED, 0)
        assert state.peek() is None
        with pytest.raises(ExhaustedError):
            state.step()
        blobs.append(save(state))
        first, last = (restore(blob, fn) for blob in blobs)
        assert (first.r, last.r) == (1, 2)
        assert first.step() == (SEED, 0) and save(first) == blobs[1]
        for resumed in (first, last):
            with pytest.raises(ExhaustedError):
                resumed.step()
    assert calls[0] == 0
    assert type(Prover(MIX, 0, SEED).pebbler) is InPlaceOptimal  # auto runs in place


@pytest.mark.parametrize("code", [2, 3])
def test_restore_rejects_order_above_30(code):
    # a well-formed k=31 blob one round before exhaustion (r = 2^32 - 1):
    # 32 flagged slots, of which only slot 0 is held
    blob = (bytes([code, 31]) + (2**32 - 1).to_bytes(4, "big")
            + b"\x01" + SEED + bytes(1 + 8) * 31)
    fn, calls = counting(MIX)
    with pytest.raises(DecodeError):
        restore(blob, fn)
    assert calls[0] == 0


@pytest.mark.parametrize("cls,names", [
    (InPlaceSpeed2, {"owf", "z", "c"}),
    (InPlaceOptimal, {"owf", "z", "c", "rem"}),
])
def test_inplace_state_is_counter_plus_slots(cls, names):
    # no __dict__, so no table can hide beside the counter and the slots
    fresh = cls(MIX, 6, SEED)
    fresh.step()
    for state in (fresh, restore(save(fresh), MIX)):
        assert not hasattr(state, "__dict__")
        held = {n for c in type(state).__mro__ for n in getattr(c, "__slots__", ())}
        assert held == names
        for name in names:
            getattr(state, name)  # every slot is set
        with pytest.raises(AttributeError):
            state.table = []


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_order_and_round_are_read_off_slots_and_countdown(cls):
    # k and r are not stored: k = len(z) - 1 and r = 2^(k+1) - c, before and
    # after a save and restore, at every round of every order up to 6
    for k in range(7):
        state = cls(MIX, k, SEED)
        for j in range((1 << k) + 1):
            restored = restore(save(state), MIX)
            assert restored.c == state.c
            for s in (state, restored):
                assert s.k == len(s.z) - 1 == k
                assert s.r == (2 << k) - s.c == (1 << k) + j, (k, j)
            if j < 1 << k:
                state.step()
        assert state.exhausted


@pytest.mark.parametrize("k", range(1, 11))
def test_optimal_counters_match_closed_form(k):
    # each live sub-pebbler's counter is where the closed form puts its frontier
    state = InPlaceOptimal(MIX, k, SEED)
    while not state.exhausted:
        c = (2 << k) - state.r
        for s in (state, restore(save(state), MIX)):
            for i in range(k + 1):
                if c >> i & 1 and c & ((1 << i) - 1):  # set, and not the lowest
                    assert s.rem[i] == optimal_remaining(i, c % 2**i) + 1, (k, state.r, i)
        state.step()


@pytest.mark.parametrize("k", range(1, 13))
def test_fresh_optimal_counters_are_the_restored_ones(k):
    # one derivation of rem from (k, r), whether built or restored
    fresh = InPlaceOptimal(MIX, k, SEED)
    assert fresh.rem == restore(save(fresh), MIX).rem


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_peek_is_the_next_release(cls):
    # at every round, of a live state and of its save restored; None past the end
    for k in range(1, 9):
        state = cls(MIX, k, SEED)
        while not state.exhausted:
            resumed = restore(save(state), MIX)
            want = state.peek()
            assert want is not None and resumed.peek() == want
            assert state.step()[0] == want == resumed.step()[0], (k, state.r)
        assert state.peek() is None and resumed.peek() is None


# -- serialization ------------------------------------------------------------

def test_save_layout_sizes():
    st2 = InPlaceSpeed2(MIX, 5, SEED)
    assert len(save(st2)) == 6 + 6 * (8 + 1)
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


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
@pytest.mark.parametrize("k", range(1, 11))
def test_restore_holds_exactly_the_saved_values(cls, k):
    # not only the same stream: no slot left empty by the steps is refilled
    state = cls(MIX, k, SEED)
    while True:
        assert restore(save(state), MIX).z == state.z, state.r
        if state.exhausted:
            break
        state.step()


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_restored_slot_list_is_the_live_size(cls):
    # a restored state holds no more memory than the live state it equals
    state = cls(MD5, 13, bytes(16))
    for _ in range(2):
        assert sys.getsizeof(restore(save(state), MD5).z) == sys.getsizeof(state.z)
        for _ in range(1000):
            state.step()


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
    # slot 2 is empty at round 45; a blob marking it present is refused by
    # restore itself, which must raise even under python -O
    sto = InPlaceOptimal(MIX, 5, bytes(8))
    while sto.r < 45:
        sto.step()
    blob = bytearray(save(sto))
    flag = 6 + 2 * (8 + 1)  # after the header, a presence octet + 8 bytes per slot
    assert sto.z[2] is None and blob[flag] == 0
    blob[flag] = 1
    with pytest.raises(DecodeError):
        restore(bytes(blob), MIX)


def test_restore_any_flipped_presence_flag_fails_loudly_or_changes_nothing():
    # both steppers, every boundary (the exhausted one included), every slot,
    # both directions (present -> absent and absent -> present with a
    # zero-filled value): restore refuses every tampered blob
    k = 5
    for cls in (InPlaceSpeed2, InPlaceOptimal):
        base = cls(MIX, k, SEED)
        while True:
            blob = save(base)
            for s in range(k + 1):
                tampered = bytearray(blob)
                tampered[6 + s * (MIX.width + 1)] ^= 1
                with pytest.raises(DecodeError):
                    restore(bytes(tampered), MIX)
            if base.exhausted:
                break
            base.step()


@st.composite
def _restore_blobs(draw):
    """Headers with any in-range r, bodies of the right size with random
    values behind either random presence flags (2 is invalid) or the flags
    of a real save at round r; or a real save's flags with random held
    values and zero-filled absent slots, as save writes them, which restore
    accepts."""
    code, k = draw(st.sampled_from([2, 3])), draw(st.integers(0, 5))
    r = draw(st.integers(1 << k, 2 << k))
    w = MIX.width
    arm = draw(st.sampled_from(["random flags", "real flags", "as saved"]))
    if arm == "random flags":
        flags = [draw(st.integers(0, 2)) for _ in range(k + 1)]
    else:
        state = (InPlaceSpeed2 if code == 2 else InPlaceOptimal)(MIX, k, SEED)
        while state.r < r:
            state.step()
        flags = save(state)[6::w + 1]
    body = b"".join(bytes([f]) + (bytes(w) if arm == "as saved" and not f
                                  else draw(st.binary(min_size=w, max_size=w)))
                    for f in flags)
    return bytes([code, k]) + r.to_bytes(4, "big") + body


@settings(deadline=None)
@given(_restore_blobs() | st.binary(max_size=80))
def test_restore_any_bytes_fails_cleanly_or_steps_cleanly(blob):
    # any bytes: DecodeError at once, or a state whose every emission is of
    # the function's width until DecodeError or exhaustion
    try:
        state = restore(blob, MIX)
    except DecodeError:
        return
    try:
        while True:
            out, _ = state.step()
            assert len(out) == MIX.width
    except (DecodeError, ExhaustedError):
        pass


@settings(deadline=None)
@given(_restore_blobs() | st.binary(max_size=80))
def test_every_blob_restore_accepts_saves_back_to_itself(blob):
    try:
        state = restore(blob, MIX)
    except DecodeError:
        return
    assert save(state) == blob


@pytest.mark.parametrize("cls", [InPlaceSpeed2, InPlaceOptimal])
def test_restore_refuses_a_nonzero_octet_behind_an_absent_flag(cls):
    # save zero-fills an absent slot, and restore takes only what save writes
    state = cls(MIX, 5, SEED)
    while state.r < 45:
        state.step()
    blob = bytearray(save(state))
    s = state.z.index(None)
    value = 6 + s * (MIX.width + 1) + 1  # the absent slot's first value octet
    assert blob[value - 1] == blob[value] == 0
    blob[value] = 1
    with pytest.raises(DecodeError):
        restore(bytes(blob), MIX)


# save() hex at k=5, seed SEED, testmix64, rounds 2^k, 2^k + 11 and 2^(k+1) - 1
GOLDEN_SAVES = {
    ("speed2", 32): "0205000000200136478ab29412c3f6017f6fb990c484111f018f5610a41f"
                    "b7a48d012f4fa1d427b513db011d6e0cabd8586a95010123456789abcdef",
    ("speed2", 43): "02050000002b01c2015eba0c63344e01196c007c8eda0b04011d6e0cabd8"
                    "586a95016e51092e36d66ba2010123456789abcdef000000000000000000",
    ("speed2", 63): "02050000003f010123456789abcdef000000000000000000000000000000"
                    "000000000000000000000000000000000000000000000000000000000000",
    ("optimal", 32): "0305000000200136478ab29412c3f6017f6fb990c484111f018f5610a41f"
                     "b7a48d012f4fa1d427b513db011d6e0cabd8586a95010123456789abcdef",
    ("optimal", 43): "03050000002b01c2015eba0c63344e01930d7460c0d8f840011d6e0cabd8"
                     "586a9501d780001afd0a3a0d010123456789abcdef000000000000000000",
    ("optimal", 63): "03050000003f010123456789abcdef000000000000000000000000000000"
                     "000000000000000000000000000000000000000000000000000000000000",
}


@pytest.mark.parametrize("variant,r", list(GOLDEN_SAVES))
def test_save_format_is_stable(variant, r):
    # a fresh stepper saves the pinned bytes, and the pinned bytes restore to
    # the rest of the reversal, outputs and hash counts
    k = 5
    state = STEPPERS[variant](MIX, k, SEED)
    while state.r < r:
        state.step()
    blob = bytes.fromhex(GOLDEN_SAVES[variant, r])
    assert save(state) == blob
    resumed = restore(blob, MIX)
    rest = [resumed.step() for _ in range((2 << k) - r)]
    at = r - (1 << k)
    assert [out for out, _ in rest] == reverse_oracle(MIX, k, SEED)[at:]
    assert [h for _, h in rest] == ([0] + work_sequence(variant, k))[at:]
    assert resumed.exhausted


# the same speed-2 states in the retired k-slot layout (k raw values, no
# presence octets), which restore refuses
RETIRED_SPEED2_SAVES = {
    32: "0205000000207f6fb990c484111f8f5610a41fb7a48d2f4fa1d427b513db"
        "1d6e0cabd8586a950123456789abcdef",
    43: "02050000002bc2015eba0c63344e196c007c8eda0b041d6e0cabd8586a95"
        "6e51092e36d66ba20123456789abcdef",
    63: "02050000003f0123456789abcdef0123456789abcdef0123456789abcdef"
        "0123456789abcdef0123456789abcdef",
}


@pytest.mark.parametrize("r", list(RETIRED_SPEED2_SAVES))
def test_restore_refuses_retired_speed2_layout(r):
    with pytest.raises(DecodeError, match="slot area has the wrong size"):
        restore(bytes.fromhex(RETIRED_SPEED2_SAVES[r]), MIX)


def test_tampered_slot_changes_stream():
    k = 4
    reference = InPlaceSpeed2(MIX, k, SEED)
    clean = [reference.step() for _ in range(1 << k)]
    blob = bytearray(save(InPlaceSpeed2(MIX, k, SEED)))
    blob[-1] ^= 0x40  # corrupt one slot byte
    tampered = restore(bytes(blob), MIX)
    assert [tampered.step() for _ in range(1 << k)] != clean


# -- at scale -----------------------------------------------------------------

@pytest.mark.parametrize("cls,family", [(InPlaceSpeed2, "speed2"), (InPlaceOptimal, "optimal")])
def test_inplace_reversal_at_k16(cls, family):
    # a reversal of order 16 meets every frontier (i, u) with i <= 15; the
    # Verifier relation checks each release with one hash, holding no oracle
    k = 16
    state = cls(MIX, k, SEED)
    assert state.storage() <= k + 1
    verifier = Verifier(MIX, iterate(MIX, SEED, 1 << k))
    hashes = []
    for _ in range(1 << k):
        out, h = state.step()
        assert verifier.check(out), state.r
        hashes.append(h)
        assert state.storage() <= k, state.r
    assert out == SEED
    assert hashes == [0] + work_sequence(family, k)


@pytest.mark.parametrize("family", sorted(STEPPERS))
def test_closed_form_is_the_stepped_state(family):
    # every round of every small order, set-up's end and exhaustion included
    for k in range(9):
        state = STEPPERS[family](POSITION, k, bytes(8))
        while True:
            assert save(state) == closed_form_blob(family, k, state.r), (k, state.r)
            if state.exhausted:
                break
            state.step()


@pytest.mark.parametrize("engine", [*(f"framework-{f}" for f in FAMILIES), *sorted(STEPPERS)])
def test_setup_at_max_order_on_every_engine(engine):
    # set up at order MAX_K in one fill through the kernel, and each stepper
    # also restored across the reversal, against the closed form
    checks.max_order([engine])
