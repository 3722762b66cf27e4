"""Framework pebblers against the brute-force oracle and the golden columns."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from chainpebble.owf import WidthError, builtin, iterate
from chainpebble.pebbler import (
    DecodeError,
    ExhaustedError,
    Pebbler,
    TraceRow,
    _fill,
    _Run,
    reverse_oracle,
    run_outputs,
    run_trace,
    trace_csv_lines,
    trace_jsonl_lines,
)
from chainpebble.inplace import STEPPERS
from chainpebble.schedule import FAMILIES, MAX_K, budgets, make_schedule, work_sequence
from harness import counting, peak_bytes, widening

MIX = builtin("testmix64")
MD5 = builtin("md5")
SEED = bytes.fromhex("0123456789abcdef")

# per-round storage columns for order 4, one per family (start-of-round counts)
STORAGE_COLUMNS_K4 = {
    "rushing": [1] * 15 + [5, 4, 4, 3, 4, 3, 3, 2, 4, 3, 3, 2, 3, 2, 2, 1],
    "speed1": [1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5,
               4, 6, 5, 5, 4, 5, 4, 4, 3, 4, 3, 3, 2, 2, 1],
    "speed2": [1] * 8 + [2, 2, 2, 2, 3, 3, 4, 5] + [4] * 8 + [3, 3, 3, 3, 2, 2, 1],
    "optimal": [1] * 8 + [2, 2, 2, 2, 2, 3, 3, 5] + [4] * 8 + [3, 3, 3, 3, 2, 2, 1],
}

# sha256 of the CSV traces for k = 0..10, one LF-terminated line each; the
# oracle's output must stay byte-identical through any rewrite of its rounds
GOLDEN_TRACE_SHA256 = {
    "rushing": "9352788a47371798522cfbeeab2e81d60d2eda9fd076df0aec854b8a49192f35",
    "speed1": "8a1e7ce7db0084e9cd28f915e8882ce7d59ef4c5ad8d4c8022998f02795d47b9",
    "speed2": "5504176c6b2a1ddf00060db1ea1633eeba12817d757b9676874946874a04faf4",
    "optimal": "eef079f250bac0cbcb964570d2c50830fb53904b3c4b755f313a4bf6a629b256",
}
# sha256 of repr(live_pebblers()) after every round for k = 0..8, one line
# each; the sub-pebbler lifetimes do not depend on the family
GOLDEN_LIVE_SHA256 = "96283a321b6247480d32fb5449b94bef40d105e5f6907231b59e40be722a760c"
# the frontier is stepped highest order first; the ids keep the names the
# digests were pinned under
DESCENDING = [pytest.param(family, id=f"{family}-descending") for family in FAMILIES]


def test_reverse_oracle_shape():
    assert reverse_oracle(MIX, 0, SEED) == [SEED]
    chain = reverse_oracle(MIX, 3, SEED)
    assert len(chain) == 8
    assert chain[0] == iterate(MIX, SEED, 7)
    assert chain[-1] == SEED


@pytest.mark.parametrize("family", FAMILIES)
def test_reversal_exhaustive_small_orders(family):
    for seed_int in range(256):
        seed = seed_int.to_bytes(8, "big")
        for k in range(7):
            assert run_outputs(MIX, family, k, seed) == reverse_oracle(MIX, k, seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 8), st.sampled_from(FAMILIES))
def test_reversal_random_seeds(seed_int, k, family):
    seed = seed_int.to_bytes(8, "big")
    assert run_outputs(MIX, family, k, seed) == reverse_oracle(MIX, k, seed)


def test_order_zero_single_round():
    p = Pebbler(MIX, "optimal", 0, SEED)
    assert p.lifetime == 1
    assert p.storage() == 1
    res = p.step()
    assert (res.round, res.hashes, res.output) == (1, 0, SEED)
    with pytest.raises(ExhaustedError):
        p.step()


def test_order_one_three_rounds():
    p = Pebbler(MIX, "speed1", 1, SEED)
    first = p.step()
    assert (first.hashes, first.output) == (1, None)
    second = p.step()
    assert second.output == iterate(MIX, SEED, 1) and second.hashes == 0
    third = p.step()
    assert third.output == SEED
    assert p.exhausted


@pytest.mark.parametrize("family", FAMILIES)
def test_first_output_round_is_free(family):
    for k in (1, 3, 5):
        p = Pebbler(MIX, family, k, SEED)
        for _ in range((1 << k) - 1):
            assert p.step().output is None
        res = p.step()
        assert res.hashes == 0
        assert res.output == iterate(MIX, SEED, (1 << k) - 1)


def test_one_output_per_reversal_round():
    for family in FAMILIES:
        p = Pebbler(MIX, family, 5, SEED)
        outputs = [p.step().output is not None for _ in range(p.lifetime)]
        assert outputs == [False] * 31 + [True] * 32


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", range(13))
def test_trace_work_matches_recurrence(family, k):
    rows = run_trace(MIX, family, k, SEED)
    assert [row.hashes for row in rows[1 << k:]] == work_sequence(family, k)
    assert rows[(1 << k) - 1].hashes == 0  # the free first-output round


def test_spot_round_budgets():
    speed2 = run_trace(MIX, "speed2", 4, SEED)
    assert speed2[20].round == 21 and speed2[20].hashes == 3
    rushing = run_trace(MIX, "rushing", 4, SEED)
    assert rushing[22].round == 23 and rushing[22].hashes == 7


@pytest.mark.parametrize("family", FAMILIES)
def test_storage_golden_columns(family):
    rows = run_trace(MIX, family, 4, SEED)
    assert [row.storage for row in rows] == STORAGE_COLUMNS_K4[family]


@pytest.mark.parametrize("family", DESCENDING)
def test_trace_golden_digest(family):
    digest = hashlib.sha256()
    for k in range(11):
        for line in trace_csv_lines(run_trace(MIX, family, k, SEED)):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_TRACE_SHA256[family]


@pytest.mark.parametrize("family", DESCENDING)
def test_live_pebblers_golden_digest(family):
    digest = hashlib.sha256()
    for k in range(9):
        p = Pebbler(MIX, family, k, SEED)
        for _ in range(p.lifetime):
            p.step()
            digest.update(repr(p.live_pebblers()).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_LIVE_SHA256


@pytest.mark.parametrize("family", FAMILIES)
def test_root_round_is_the_pebblers_until_its_handoff(family):
    # the root is an ordinary frontier run, stepped by the same loop in its
    # set-up rounds as in every later round
    for k in range(9):
        p = Pebbler(MIX, family, k, SEED)
        while p.r <= 1 << k:
            assert p.live_pebblers() == [(k, p.r)], (k, p.r)
            p.step()


def _rest_of_run(p):
    """run_trace's rows for the rounds p has left, each with live_pebblers()."""
    rows = []
    while not p.exhausted:
        held = p.storage()
        res = p.step()
        rows.append((TraceRow(res.round, res.hashes, held, res.output), p.live_pebblers()))
    return rows


@pytest.mark.parametrize("family", FAMILIES)
def test_finish_setup_matches_per_round_setup(family):
    # stop the per-round set-up after every possible round, then finish it
    # in one fill: same hashes in all, then the same rows to the end
    for k in range(9):
        ref = Pebbler(MIX, family, k, SEED)
        for _ in range((1 << k) - 1):
            ref.step()
        want = _rest_of_run(ref)
        for stop in range(1 << k):
            p = Pebbler(MIX, family, k, SEED)
            spent = sum(p.step().hashes for _ in range(stop))
            spent += p.finish_setup()
            assert spent == (1 << k) - 1, (k, stop)
            assert p.r == 1 << k
            assert p.finish_setup() == 0  # past set-up it does nothing
            assert _rest_of_run(p) == want, (k, stop)


def _fill_per_hash(owf, z, rem, n):
    """Reference for _fill: one hash at a time, from the frontier slot into
    the slot that owns the hash, bitlen(rem) - 1 and bitlen(rem - 1) - 1."""
    for _ in range(n):
        z[(rem - 1).bit_length() - 1] = owf.fn(z[rem.bit_length() - 1])
        rem -= 1


@pytest.mark.parametrize("k", range(1, 7))
def test_fill_matches_per_hash_reference(k):
    # every frontier a set-up passes through (rem = 2^k .. 2), every spend
    # that stops short of the end: runs that end on a slot boundary, start
    # at one (rem a power of two) and span several slots
    z = [None] * k + [SEED]
    states = {}
    for rem in range(1 << k, 1, -1):
        states[rem] = list(z)
        _fill_per_hash(MIX, z, rem, 1)
    assert z == [iterate(MIX, SEED, (1 << k) - (1 << i)) for i in range(k + 1)]
    for rem, start in states.items():
        for n in range(1, rem):
            got, want = list(start), list(start)
            _fill(MIX, got, rem, n)
            _fill_per_hash(MIX, want, rem, n)
            assert got == want, (rem, n)


def test_fill_refuses_slots_out_of_step_with_rem():
    # rem = 4 fills slot 2 first, from its own value, then descends to slot 1
    with pytest.raises(DecodeError, match="hashing from an empty slot"):
        _fill(MIX, [None, None, None], 4, 1)
    with pytest.raises(DecodeError, match="descended into an occupied slot"):
        _fill(MIX, [None, SEED, SEED], 4, 1)


def test_md5_reversal_spot():
    md5 = builtin("md5")
    seed = bytes.fromhex("d41d8cd98f00b204e9800998ecf8427e")
    for family in FAMILIES:
        assert run_outputs(md5, family, 4, seed) == reverse_oracle(md5, 4, seed)


def test_trace_serialization():
    rows = run_trace(MIX, "optimal", 2, SEED)
    csv = list(trace_csv_lines(rows))
    assert csv[0] == "round,hashes,storage,output"
    assert len(csv) == 8
    assert csv[1].startswith("1,0,1,") and csv[1].endswith(",")  # no output yet
    assert csv[4] == f"4,0,3,{iterate(MIX, SEED, 3).hex()}"
    parsed = [json.loads(line) for line in trace_jsonl_lines(rows)]
    assert parsed[0] == {"round": 1, "hashes": 0, "storage": 1, "output": None}
    assert parsed[3]["output"] == iterate(MIX, SEED, 3).hex()


@pytest.mark.parametrize("family", FAMILIES)
def test_peek_is_the_next_release(family):
    # None in set-up rounds and once exhausted, else what the round releases;
    # peeking changes nothing, and a one-fill set-up peeks alike
    for k in range(9):
        p = Pebbler(MIX, family, k, SEED)
        while not p.exhausted:
            want = p.peek()
            assert (want is None) == (p.r < 1 << k), (k, p.r)
            assert p.peek() == want == p.step().output, (k, p.r)
        assert p.peek() is None
        filled = Pebbler(MIX, family, k, SEED)
        filled.finish_setup()
        assert filled.peek() == iterate(MIX, SEED, (1 << k) - 1)


def test_round_without_an_emitter_fails_loudly():
    # a runtime check, not an assert: it must also fire under python -O
    p = Pebbler(MIX, "optimal", 3, SEED)
    for _ in range(1 << 3):
        p.step()
    p.children.clear()
    with pytest.raises(RuntimeError):
        p.step()


def _past_handoff(k):
    """An order-k pebbler just after its hand-off: runs of orders k-1..0."""
    p = Pebbler(MIX, "optimal", k, SEED)
    for _ in range(1 << k):
        p.step()
    assert p.live_pebblers() == [(i, 1) for i in range(k - 1, -1, -1)]
    return p


def test_two_runs_at_their_handoff_fail_loudly():
    p = _past_handoff(3)
    p.children[0].base = p.r - (1 << 2)  # order 2 jumps to its hand-off beside order 0's
    with pytest.raises(RuntimeError, match="exactly one run"):
        p.step()


def test_setup_round_that_would_emit_fails_loudly():
    # order 1 skips its set-up round and is alone at its hand-off: its slot 0
    # was never pinned, so emitting it would release nothing
    p = _past_handoff(3)
    p.children[1].base = p.r - 2
    del p.children[2]
    with pytest.raises(RuntimeError, match="set-up unfinished"):
        p.step()


@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_frontier_at_most_k_runs(k):
    p = Pebbler(MIX, "speed2", k, SEED)
    while not p.exhausted:
        assert len(p.children) <= max(k, 1)
        p.step()
    assert p.children == []


@pytest.mark.parametrize("family", DESCENDING)
def test_runs_get_slots_only_once_they_hash(family):
    # a run holds its seed alone until its first hash gives it k+1 slots
    for k in range(9):
        p = Pebbler(MIX, family, k, SEED)
        while True:
            for run in p.children:
                assert (run.slots is None) == (run.rem == 1 << run.k), (k, p.r)
            if p.exhausted:
                break
            p.step()


@pytest.mark.parametrize("family", FAMILIES)
def test_handoff_builds_runs_only_for_children_that_hash(family, monkeypatch):
    # each hand-off of order j >= 1 builds runs of orders j-1..1 and turns the
    # emitter into its order-0 child, so a reversal builds 2^(k-1) - 1 runs
    built = [0]
    init = _Run.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Run, "__init__", counted)
    for k in range(1, 11):
        p = Pebbler(MIX, family, k, SEED)
        p.finish_setup()
        built[0] = 0
        while not p.exhausted:
            p.step()
        assert built[0] == (1 << (k - 1)) - 1, k


def _framework_lifetime(k):
    p = Pebbler(MIX, "optimal", k, SEED)
    for _ in range(p.lifetime):
        p.step()


def test_framework_memory_flat_in_k():
    # budgets come per round, so no pebbler keeps an O(2^k) schedule list
    small = peak_bytes(lambda: _framework_lifetime(8))
    large = peak_bytes(lambda: _framework_lifetime(14))
    assert large < 8 * 1024, large
    assert large - small < 4 * 1024, (small, large)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_pebbler_rejects_seed_of_wrong_width(k):
    fn, calls = counting(MD5)
    with pytest.raises(WidthError):
        Pebbler(fn, "optimal", k, bytes(15))
    assert calls[0] == 0  # checked before any hashing


@pytest.mark.parametrize("family", FAMILIES)
def test_pebbler_rejects_owf_that_changes_width_in_setup(family):
    p = Pebbler(widening(MD5), family, 4, bytes(16))
    with pytest.raises(WidthError):
        for _ in range((1 << 4) - 1):
            p.step()


@pytest.mark.parametrize("family", FAMILIES)
def test_pebbler_rejects_owf_that_changes_width_in_reversal(family):
    # set-up spends 2^k - 1 hashes honestly; the first reversal hash widens
    p = Pebbler(widening(MD5, after=(1 << 4) - 1), family, 4, bytes(16))
    for _ in range((1 << 4) - 1):
        p.step()
    with pytest.raises(WidthError):
        while True:
            p.step()


@pytest.mark.parametrize("k", [-1, MAX_K + 1])
def test_every_engine_takes_orders_0_to_max_k_only(k):
    # one range, refused before any hash or allocation: from k = 33 a
    # framework set-up would hand the md5 kernel a share past a C int
    owf, calls = counting(MIX)
    for family in FAMILIES:
        with pytest.raises(ValueError, match=f"order k must be 0..{MAX_K}"):
            Pebbler(owf, family, k, SEED)
        with pytest.raises(ValueError, match=f"order k must be 0..{MAX_K}"):
            budgets(family, k)
        with pytest.raises(ValueError, match=f"order k must be 0..{MAX_K}"):
            make_schedule(family, k)
    for cls in STEPPERS.values():
        with pytest.raises(ValueError, match=f"order k must be 0..{MAX_K}"):
            cls(owf, k, SEED)
    assert calls[0] == 0
