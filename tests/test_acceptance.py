"""Acceptance suite: every shipped guarantee, one test per criterion.

Each criterion prints its own pass/fail line; run with ``pytest -s`` (or read
the captured output on failure).  All checks are exact unless a tolerance is
stated inline.  Criteria 1-7 run the ``chainpebble.checks`` that ``verify``
runs, over wider ranges; a failure names its counterexample.
"""

import functools
import math
import socket

import pytest

from chainpebble import checks
from chainpebble.inplace import FIRST_OUTPUT, HASHING, IDLE, decode_states, segment_budgets
from chainpebble.owf import builtin, evaluate, iterate
from chainpebble.pebbler import ExhaustedError, run_trace
from chainpebble.protocol import Prover
from chainpebble.schedule import image_deficit, unrounded_head, unrounded_tail, work_sequence
from harness import serving

MIX = builtin("testmix64")
MD5 = builtin("md5")
SEEDS = {"testmix64": bytes.fromhex("0123456789abcdef"),
         "md5": bytes.fromhex("d41d8cd98f00b204e9800998ecf8427e")}


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({label}): FAIL")
                raise
            print(f"criterion {number:2d} ({label}): PASS")
        return wrapper
    return deco


@criterion(1, "oracle reversal, all families and owfs, k <= 12")
def test_criterion_01_oracle_reversal():
    for owf in (MIX, MD5):
        checks.oracle_reversal(owf, SEEDS[owf.name], range(13))


@criterion(2, "published schedule fixtures, exact half-integers")
def test_criterion_02_schedule_fixtures():
    checks.closed_form_fixtures(range(5))
    assert unrounded_head(3) == [4, 2] and unrounded_tail(3) == [4, 4]  # 2,1 and 2,2
    assert unrounded_head(4) == [5, 3, 2, 2]  # 5/2, 3/2, 1, 1
    assert unrounded_tail(4) == [5, 3, 5, 5]  # 5/2, 3/2, 5/2, 5/2
    assert unrounded_head(2) == [3]  # 3/2


@criterion(3, "work bounds, exact integers")
def test_criterion_03_work_bounds():
    assert work_sequence("rushing", 4)[23 - 17] == 7
    assert work_sequence("speed2", 4)[21 - 17] == 3
    checks.work_bounds(range(1, 15))


@criterion(4, "storage bounds via traces, exact")
def test_criterion_04_storage_bounds():
    checks.storage_bounds(MIX, SEEDS["testmix64"], range(1, 13))


@criterion(5, "exact identities: key equation, rounding, budget sums")
def test_criterion_05_exact_identities():
    checks.key_equation(range(2, 15))
    checks.rounding(range(2, 15))
    checks.schedule_sums(range(21))


@criterion(6, "in-place equivalence and save/restore round-trips")
def test_criterion_06_inplace_equivalence():
    checks.inplace_equivalence(MIX, SEEDS["testmix64"], "speed2", range(1, 13))
    checks.inplace_equivalence(MIX, SEEDS["testmix64"], "optimal", range(1, 11))


@criterion(7, "counter decoding and bit-segment budgets")
def test_criterion_07_counter_decoding():
    got = [(p.index, p.phase) for p in decode_states(9, 360)]
    assert got == [(8, HASHING), (6, IDLE), (5, HASHING), (3, FIRST_OUTPUT)]
    assert segment_budgets(9, 360) == [(8, 3), (5, 6)]  # 3/2 and 3
    assert sum(d for _, d in segment_budgets(9, 360)) == 9  # 9/2 in total
    checks.counter_decoding(MIX, SEEDS["testmix64"], range(1, 11))


@criterion(8, "protocol end-to-end over loopback, k=8")
def test_criterion_08_protocol_loopback():
    seed = SEEDS["md5"]
    with serving(MD5) as server:
        port = server.server_address[1]
        prover = Prover(MD5, 8, seed)
        with socket.create_connection(("127.0.0.1", port)) as conn:
            wire = conn.makefile("rwb")

            def exchange(line):
                wire.write((line + "\n").encode())
                wire.flush()
                return wire.readline().decode().strip()

            assert exchange(f"REGISTER 8 {prover.endpoint.hex()}") == "OK 0"
            last = None
            for j in range(1, 257):
                value = prover.next_value()
                if j == 129:
                    # single-bit tamper rejected, verifier state unchanged
                    bad = bytes([value[0] ^ 1]) + value[1:]
                    assert exchange(f"AUTH {bad.hex()}") == "FAIL"
                assert exchange(f"AUTH {value.hex()}") == f"OK {j}", j
                if last is not None:
                    assert exchange(f"AUTH {last.hex()}") == "FAIL"  # replay
                last = value
            assert last == seed  # final anchor is the chain seed
            with pytest.raises(ExhaustedError):
                prover.next_value()  # round 257


@criterion(9, "iterate-image recurrence")
def test_criterion_09_image_deficit():
    assert image_deficit(0) == 0.0
    assert abs(image_deficit(1) - math.exp(-1)) < 1e-9
    d = 0.0
    for n in range(1, 10001):
        nxt = math.exp(-1.0 + d)
        assert d < nxt < 1.0, n
        d = nxt


@criterion(10, "rushing total hash count")
def test_criterion_10_rushing_totals():
    seed = SEEDS["testmix64"]
    for k in range(13):
        rows = run_trace(MIX, "rushing", k, seed)
        want = k * (1 << (k - 1)) if k else 0
        assert sum(row.hashes for row in rows) == want, k


def test_supporting_testmix_bijection_full_sample():
    # invariant behind criterion 1's fast owf: no collisions among 2^20 inputs
    seen = set()
    for i in range(1 << 20):
        seen.add(MIX.fn(i.to_bytes(8, "big")))
    assert len(seen) == 1 << 20


def test_supporting_endpoint_relation():
    for owf in (MIX, MD5):
        seed = SEEDS[owf.name]
        prover = Prover(owf, 2, seed)
        assert prover.endpoint == iterate(owf, seed, 4)
        first = prover.next_value()
        assert first == iterate(owf, seed, 3)
        assert evaluate(owf, first) == prover.endpoint
