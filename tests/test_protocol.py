"""Identification protocol: prover, verifier, and the line-based wire format."""

import hashlib
import re
import socket
import struct
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chainpebble import inplace, protocol
from chainpebble.inplace import STEPPERS
from chainpebble.owf import Owf, WidthError, builtin, evaluate, iterate
from chainpebble.pebbler import ExhaustedError, Pebbler, reverse_oracle
from chainpebble.protocol import (
    ENGINES,
    MAX_LINE,
    IdentificationServer,
    Prover,
    Verifier,
    run_client,
)
from chainpebble.schedule import FAMILIES
from harness import POLL_INTERVAL, counting, peak_bytes, serving, with_kernel

MIX = builtin("testmix64")
MD5 = builtin("md5")
SEED = bytes.fromhex("0123456789abcdef")


def test_registration_values():
    prover = Prover(MIX, 2, SEED)
    assert prover.endpoint == iterate(MIX, SEED, 4)
    first = prover.next_value()
    assert first == iterate(MIX, SEED, 3)
    assert evaluate(MIX, first) == prover.endpoint


def test_release_sequence_and_exhaustion():
    prover = Prover(MIX, 3, SEED)
    assert [prover.next_value() for _ in range(8)] == reverse_oracle(MIX, 3, SEED)
    with pytest.raises(ExhaustedError):
        prover.next_value()


def test_order_zero_prover():
    prover = Prover(MIX, 0, SEED)
    assert prover.endpoint == evaluate(MIX, SEED)
    assert prover.next_value() == SEED
    with pytest.raises(ExhaustedError):
        prover.next_value()


@pytest.mark.parametrize("engine", [*ENGINES, "auto"])
def test_every_engine_refuses_to_release_past_the_chain(engine):
    # exhaustion is the engine's: its step raises and changes nothing
    for k in range(1 if engine.startswith("inplace-") else 0, 7):
        prover = Prover(MIX, k, SEED, engine)
        for _ in range(1 << k):
            prover.next_value()
        for _ in range(2):
            with pytest.raises(ExhaustedError, match="exhausted"):
                prover.next_value()
            assert prover.released == 1 << k


@pytest.mark.parametrize("engine", ENGINES)
def test_released_is_read_off_the_engines_round(engine):
    # a Prover keeps no count of its own: released is the engine's r - 2^k,
    # and a refused release moves neither
    for k in range(1 if engine.startswith("inplace-") else 0, 7):
        prover = Prover(MIX, k, SEED, engine)
        pebbler = prover.pebbler
        assert (prover.released, pebbler.r) == (0, 1 << k)
        for j in range(1, (1 << k) + 1):
            prover.next_value()
            assert prover.released == pebbler.r - (1 << k) == j, (k, j)
        for _ in range(2):
            with pytest.raises(ExhaustedError):
                prover.next_value()
            assert (prover.released, pebbler.r) == (1 << k, 2 << k)


class CountingKernel:
    """The md5 kernel behind a shim that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, v: bytes, n: int) -> bytes:
        self.calls += 1
        return MD5._kernel(v, n)


def release_all(prover: Prover) -> tuple[list, list, list]:
    """Every release, its hash count and, in place, the saved state after it."""
    pebbler = prover.pebbler
    in_place = not isinstance(pebbler, Pebbler)
    values, hashes, blobs = [], [], [inplace.save(pebbler)] if in_place else []
    for _ in range(1 << pebbler.k):
        values.append(prover.next_value())
        hashes.append(prover.last_hashes)
        if in_place:
            blobs.append(inplace.save(pebbler))
    return values, hashes, blobs


@pytest.mark.skipif(MD5._kernel is None, reason="the libcrypto md5 kernel did not load")
@pytest.mark.parametrize("engine", ENGINES)
def test_md5_kernel_path_is_byte_identical_and_set_up_only(engine):
    # set-up hands each slot of 32 hashes or more to the kernel, one call
    # each (slots 5..k-1); no round calls it, and releases, hash counts and
    # saved states are those of the Python countdown
    seed = hashlib.md5(b"kernel").digest()
    for k in range(1, 13):
        shim = CountingKernel()
        fast = Prover(with_kernel(MD5, shim), k, seed, engine)
        assert shim.calls == max(k - 5, 0)
        assert release_all(fast) == release_all(Prover(with_kernel(MD5, None), k, seed, engine))
        assert shim.calls == max(k - 5, 0)
    for k in range(13, 17):
        shim = CountingKernel()
        prover = Prover(with_kernel(MD5, shim), k, seed, engine)
        assert shim.calls == k - 5
        for _ in range(1 << k):
            prover.next_value()
        assert shim.calls == k - 5


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_release_identically(engine):
    prover = Prover(MIX, 5, SEED, engine)
    prover.last_hashes = -1  # so that the first release must set it
    first = prover.next_value()
    assert prover.last_hashes == 0  # the free first round costs nothing
    rest = [prover.next_value() for _ in range(31)]
    assert [first, *rest] == reverse_oracle(MIX, 5, SEED)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("k", [31, 300])
def test_prover_rejects_order_above_30(engine, k):
    # refused before any hash: a framework set-up of 2^k - 1 would never end
    fn, calls = counting(MIX)
    with pytest.raises(ValueError):
        Prover(fn, k, SEED, engine)
    assert calls[0] == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_auto_engine_runs_the_requested_family(family):
    auto = Prover(MIX, 5, SEED, family=family)
    framework = Prover(MIX, 5, SEED, "framework", family)
    for _ in range(32):
        assert auto.next_value() == framework.next_value()
        assert auto.last_hashes == framework.last_hashes


def test_auto_engine_rejects_unknown_family_before_hashing():
    fn, calls = counting(MIX)
    for k in (0, 5):
        with pytest.raises(ValueError, match="family"):
            Prover(fn, k, SEED, family="bogus")
    assert calls[0] == 0


@pytest.mark.parametrize("engine, family", [
    ("inplace-optimal", "bogus"),
    ("inplace-optimal", "speed2"),
    ("inplace-speed2", "optimal"),
    ("inplace-speed2", "rushing"),
])
def test_inplace_engine_refuses_another_family_before_hashing(engine, family):
    fn, calls = counting(MIX)
    with pytest.raises(ValueError, match="family"):
        Prover(fn, 5, SEED, engine, family)
    assert calls[0] == 0


def test_family_none_is_the_engines_own():
    for variant, cls in STEPPERS.items():
        assert type(Prover(MIX, 5, SEED, f"inplace-{variant}").pebbler) is cls
        assert type(Prover(MIX, 5, SEED, f"inplace-{variant}", variant).pebbler) is cls
    assert Prover(MIX, 5, SEED, "framework").pebbler.family == "optimal"
    assert type(Prover(MIX, 5, SEED).pebbler) is STEPPERS["optimal"]


def _reversal(engine, k):
    prover = Prover(MD5, k, bytes(16), engine)
    for _ in range(1 << k):
        prover.next_value()


@pytest.mark.parametrize("engine", ["auto", "framework"])
def test_prover_peak_memory_grows_by_bytes_per_order(engine):
    # set-up and a whole reversal hold O(k) values: a few hundred bytes per
    # order; a table of even one bit per chain position adds more than 512 B
    # per order between k = 11 and 14
    peaks = [peak_bytes(lambda: _reversal(engine, k)) for k in (8, 11, 14)]
    for small, large in zip(peaks, peaks[1:]):
        assert large - small <= 3 * 512, peaks


def test_verifier_registration_state():
    endpoint = iterate(MIX, SEED, 8)
    verifier = Verifier(MIX, endpoint)
    assert verifier.anchor == endpoint
    assert verifier.verified == 0


@pytest.mark.parametrize("k", range(9))
def test_chain_walk(k):
    prover = Prover(MIX, k, SEED)
    verifier = Verifier(MIX, prover.endpoint)
    n = 1 << k
    for j in range(1, n + 1):
        assert verifier.check(prover.next_value())
        assert verifier.anchor == iterate(MIX, SEED, n - j)
        assert verifier.verified == j
    assert verifier.anchor == SEED


def test_reject_leaves_state_unchanged():
    prover = Prover(MIX, 4, SEED)
    verifier = Verifier(MIX, prover.endpoint)
    value = prover.next_value()
    flipped = bytes([value[0] ^ 1]) + value[1:]
    assert not verifier.check(flipped)
    assert (verifier.anchor, verifier.verified) == (prover.endpoint, 0)
    assert not verifier.check(bytes(16))  # wrong width is a plain reject
    assert verifier.check(value)  # the honest value still lands afterwards
    # replaying an accepted value fails: its hash is not itself
    assert not verifier.check(value)
    assert (verifier.anchor, verifier.verified) == (value, 1)


def test_skipping_ahead_is_rejected():
    prover = Prover(MIX, 3, SEED)
    verifier = Verifier(MIX, prover.endpoint)
    prover.next_value()
    skipped = prover.next_value()  # two steps down the chain
    assert not verifier.check(skipped)
    assert verifier.verified == 0


# sha256 of the framework Prover's releases for k = 0..10, one
# "<hex value>,<last_hashes>" LF-terminated line each; however its set-up
# is run, what it releases and what each release costs must not change
GOLDEN_FRAMEWORK_PROVER_SHA256 = {
    "rushing": "1801c27aac738d13f0471bcd8acb217f981039b8457184e36801942d182a38c3",
    "speed1": "803d20af650d962bea355e675c4f32323d1c588f0aae84d1d17f2579feaa3624",
    "speed2": "bdc8fcf8343288c37286b2fadc3053fbf3036a16bb55f590eeb88c47df9d2cb2",
    "optimal": "f6ce07fbbfccafc4708f0dd74a8d2ef6db9de20085bb8583d74e81148e51171a",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_framework_prover_golden_digest(family):
    digest = hashlib.sha256()
    for k in range(11):
        prover = Prover(MIX, k, SEED, "framework", family)
        for _ in range(1 << k):
            value = prover.next_value()
            digest.update(f"{value.hex()},{prover.last_hashes}\n".encode())
    assert digest.hexdigest() == GOLDEN_FRAMEWORK_PROVER_SHA256[family]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", range(11))
def test_framework_prover_setup_costs_only_its_hashes(family, k):
    fn, calls = counting(MIX)
    Prover(fn, k, SEED, "framework", family)
    # 2^k - 1 set-up hashes, whatever the family, and one for the endpoint
    assert calls[0] == (1 << k) - 1 + 1


@pytest.mark.parametrize("engine", ENGINES)
def test_first_release_is_the_engines_free_round(engine):
    # a Prover holds no chain value of its own: until the first release its
    # engine sits at round 2^k holding k+1 values, and that release is the
    # engine's own step, at no hash cost
    assert "_pending" not in Prover.__slots__
    for k in range(0 if engine == "framework" else 1, 9):
        prover = Prover(MIX, k, SEED, engine)
        pebbler = prover.pebbler
        assert prover.endpoint == iterate(MIX, SEED, 1 << k)
        assert (pebbler.r, pebbler.storage()) == (1 << k, k + 1)
        first = pebbler.peek()
        assert prover.next_value() == first == iterate(MIX, SEED, (1 << k) - 1)
        assert (prover.last_hashes, prover.released) == (0, 1)


@pytest.mark.parametrize("variant", STEPPERS)
def test_state_saved_before_the_first_release_restores_every_release(variant):
    for k in range(1, 11):
        prover = Prover(MIX, k, SEED, f"inplace-{variant}")
        resumed = inplace.restore(inplace.save(prover.pebbler), MIX)
        assert [resumed.step()[0] for _ in range(1 << k)] == reverse_oracle(MIX, k, SEED), k
        with pytest.raises(ExhaustedError):
            resumed.step()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "memoryview"])
def test_engines_keep_a_private_copy_of_the_seed(engine, kind):
    # mutating the caller's buffer after construction changes nothing: every
    # release verifies, and the last one is bytes equal to the seed, not the buffer
    seed = hashlib.md5(b"seed").digest()
    buffer = kind(seed)
    prover = Prover(MD5, 3, buffer, engine)
    buffer[:] = bytes(16)
    verifier = Verifier(MD5, prover.endpoint)
    values = [prover.next_value() for _ in range(8)]
    assert all(verifier.check(v) for v in values)
    assert values[-1] == seed and type(values[-1]) is bytes
    for bad in (16, "0123456789abcdef"):  # never zero bytes, never hashed as text
        with pytest.raises(TypeError):
            Prover(MD5, 3, bad, engine)


def test_verifier_keeps_a_private_copy_of_its_anchor():
    endpoint, value = bytearray(iterate(MIX, SEED, 2)), bytearray(iterate(MIX, SEED, 1))
    verifier = Verifier(MIX, endpoint)
    endpoint[:] = bytes(8)
    assert verifier.check(value)
    value[:] = bytes(8)
    assert verifier.anchor == iterate(MIX, SEED, 1) and type(verifier.anchor) is bytes
    assert verifier.check(SEED)


def test_verifier_takes_only_an_anchor_of_the_width():
    # an anchor of another width could match no candidate: refused at once
    for wrong in (b"short", bytes(7), bytes(16), b""):
        with pytest.raises(WidthError):
            Verifier(MIX, wrong)
    with pytest.raises(WidthError):
        Verifier(MD5, b"short")
    for bad in (8, "0123456789abcdef"):  # never zero bytes, never hashed as text
        with pytest.raises(TypeError):
            Verifier(MIX, bad)


def test_per_release_hash_counts():
    prover = Prover(MIX, 4, SEED, "inplace-optimal")
    counts = []
    for _ in range(16):
        prover.next_value()
        counts.append(prover.last_hashes)
    assert max(counts) == 2  # ceil(4/2)
    assert counts[0] == 0


# -- wire protocol ------------------------------------------------------------

# every ERR reason the server gives for a line it has read; the module
# docstring and the README list these and idle-timeout and busy, each once
REFUSALS = {"line-too-long", "bad-encoding", "empty-line", "bad-register",
            "not-registered", "bad-auth", "unknown-command"}
ENDPOINT = iterate(MIX, SEED, 4)
NEXT = iterate(MIX, SEED, 3)
ORDERS = ["2", "+2", "-0", "31", "\u0662", "x"]
VALUES = [ENDPOINT.hex(), NEXT.hex(), NEXT.hex().upper(), "00" * 8, "0" * 15, "\xe9" * 16]
WORDS = st.one_of(
    st.tuples(st.just("REGISTER"), st.sampled_from(ORDERS), st.sampled_from(VALUES)),
    st.tuples(st.just("AUTH"), st.sampled_from(VALUES)),
    st.lists(st.sampled_from(["REGISTER", "AUTH", "PING", *ORDERS, *VALUES]), max_size=4),
)
# word lines, some padded to the length limit and past it, and raw bytes
WIRE_LINES = st.one_of(
    st.builds(lambda words, sep, end, pad: (sep.join(words).encode() + end).rjust(pad),
              WORDS,
              st.sampled_from([" ", "  ", "\t", "\u00a0", "\x1c"]),
              st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"", b"\xff\n"]),
              st.sampled_from([0, 0, 0, MAX_LINE, MAX_LINE + 1])),
    st.binary(max_size=MAX_LINE + 2),
)


@settings(max_examples=300, deadline=None)
@given(raw=WIRE_LINES, registered=st.booleans())
def test_answer_replies_or_refuses_every_line(raw, registered):
    verifier = Verifier(MIX, ENDPOINT) if registered else None
    before = verifier and (verifier.anchor, verifier.verified)
    try:
        reply, after = protocol._answer(MIX, verifier, raw)
    except protocol.Refusal as exc:
        assert exc.args[0] in REFUSALS, exc.args
        assert (verifier and (verifier.anchor, verifier.verified)) == before
        return
    assert re.fullmatch(r"OK \d+|FAIL", reply), reply
    assert isinstance(after, Verifier)
    if reply == "FAIL":  # a rejection keeps the session's verifier as it was
        assert after is verifier and (after.anchor, after.verified) == before
    elif after is verifier:  # an accepted AUTH counts one more
        assert reply == f"OK {after.verified}" and after.verified == before[1] + 1
    else:  # a REGISTER starts a fresh verifier
        assert reply == "OK 0" and after.verified == 0


def test_answer_decides_each_documented_refusal():
    registered = Verifier(MIX, ENDPOINT)
    cases = {
        b"A" * MAX_LINE + b"\n": "line-too-long",
        b"\xff\n": "bad-encoding",
        b" \t\n": "empty-line",
        b"REGISTER 2\n": "bad-register",
        f"REGISTER 31 {ENDPOINT.hex()}\n".encode(): "bad-register",
        b"AUTH\n": "not-registered",
        b"PING\n": "unknown-command",
    }
    for raw, reason in cases.items():
        with pytest.raises(protocol.Refusal) as refused:
            protocol._answer(MIX, None, raw)
        assert refused.value.args == (reason,), raw
    with pytest.raises(protocol.Refusal, match="bad-auth"):
        protocol._answer(MIX, registered, f"AUTH {NEXT.hex().upper()}\n".encode())
    assert protocol._answer(MIX, registered, f"AUTH {NEXT.hex()}\n".encode()) == ("OK 1", registered)


def test_register_order_is_ascii_digits_only():
    # int() would take a sign, an underscore or a non-ASCII digit
    for order in ("+2", "-0", "0_2", "\u0662"):
        with pytest.raises(protocol.Refusal) as refused:
            protocol._answer(MIX, None, f"REGISTER {order} {ENDPOINT.hex()}\n".encode())
        assert refused.value.args == ("bad-register",), order


def test_every_err_reason_is_documented_once():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for reason in REFUSALS | {"idle-timeout", "busy"}:
        assert len(re.findall(rf"^ +{reason}\s", protocol.__doc__, re.M)) == 1, reason
        assert len(re.findall(rf"^\| `{reason}` \|", readme, re.M)) == 1, reason


@pytest.fixture()
def server():
    with serving(MIX) as srv:
        yield srv


def _talk(port, lines):
    with socket.create_connection(("127.0.0.1", port)) as conn:
        wire = conn.makefile("rwb")
        replies = []
        for line in lines:
            wire.write((line + "\n").encode())
            wire.flush()
            reply = wire.readline().decode().strip()
            replies.append(reply)
            if not reply or reply.startswith("ERR"):
                break
        return replies


def test_wire_happy_path(server):
    port = server.server_address[1]
    prover = Prover(MIX, 2, SEED)
    lines = [f"REGISTER 2 {prover.endpoint.hex()}"]
    lines += [f"AUTH {prover.next_value().hex()}" for _ in range(4)]
    assert _talk(port, lines) == ["OK 0", "OK 1", "OK 2", "OK 3", "OK 4"]


def test_wire_rejects_unknown_command(server):
    port = server.server_address[1]
    assert _talk(port, ["PING"]) == ["ERR unknown-command"]


def test_wire_rejects_bad_hex_and_early_auth(server):
    port = server.server_address[1]
    assert _talk(port, ["AUTH " + "00" * 8]) == ["ERR not-registered"]
    assert _talk(port, ["REGISTER 2 XYZ"]) == ["ERR bad-register"]
    assert _talk(port, ["REGISTER 2 " + "AB" * 8]) == ["ERR bad-register"]  # uppercase
    assert _talk(port, ["REGISTER 99 " + "00" * 8]) == ["ERR bad-register"]


def test_wire_fail_keeps_session_alive(server):
    port = server.server_address[1]
    prover = Prover(MIX, 1, SEED)
    good = prover.next_value()
    bad = bytes([good[0] ^ 1]) + good[1:]
    replies = _talk(port, [
        f"REGISTER 1 {prover.endpoint.hex()}",
        f"AUTH {bad.hex()}",
        f"AUTH {good.hex()}",
    ])
    assert replies == ["OK 0", "FAIL", "OK 1"]


def _send_raw(port, data):
    """Send bytes as they are and return the server's first reply line."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(data)
        return conn.makefile("rb").readline().decode().strip()


def test_wire_line_at_the_limit_is_accepted(server):
    port = server.server_address[1]
    prover = Prover(MIX, 2, SEED)
    line = f"REGISTER 2 {prover.endpoint.hex()}".ljust(MAX_LINE - 1) + "\n"
    assert len(line) == MAX_LINE
    assert _send_raw(port, line.encode()) == "OK 0"


def test_wire_rejects_line_over_the_limit(server):
    port = server.server_address[1]
    prover = Prover(MIX, 2, SEED)
    line = f"REGISTER 2 {prover.endpoint.hex()}".ljust(MAX_LINE) + "\n"
    assert _send_raw(port, line.encode()) == "ERR line-too-long"


def test_wire_rejects_line_that_never_ends(server):
    # no LF ever comes and the connection stays open: the server must answer
    # once it has read one byte past the limit, not buffer without bound
    port = server.server_address[1]
    assert _send_raw(port, b"A" * (MAX_LINE + 1)) == "ERR line-too-long"


@pytest.mark.parametrize("sent", [b"", b"REGISTER 2 ", b"PING"])
def test_wire_closes_silent_session(server, monkeypatch, capsys, sent):
    # nothing, half a line, or a line with no LF, then silence: the server
    # answers once the timeout passes, closes, and logs no traceback
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT", 0.2)
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(sent)
        wire = conn.makefile("rb")
        assert wire.readline() == b"ERR idle-timeout\n"
        assert wire.read() == b""  # closed
    assert "Traceback" not in capsys.readouterr().err


def test_wire_timeout_counts_each_wait_not_the_session(server, monkeypatch):
    # every pause is shorter than the timeout, the whole session is longer
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT", 0.5)
    port = server.server_address[1]
    prover = Prover(MIX, 2, SEED)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        wire = conn.makefile("rwb")
        replies = []
        for line in [f"REGISTER 2 {prover.endpoint.hex()}"] + [
                f"AUTH {prover.next_value().hex()}" for _ in range(3)]:
            time.sleep(0.2)
            wire.write((line + "\n").encode())
            wire.flush()
            replies.append(wire.readline().decode().strip())
    assert replies == ["OK 0", "OK 1", "OK 2", "OK 3"]


def test_wire_timeout_counts_whole_lines_not_bytes(server, monkeypatch):
    # one byte every 0.05 s never leaves the socket idle for the timeout, but
    # no line is whole within it: the server answers while bytes still come
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT", 0.2)
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=0.05) as conn:
        for _ in range(40):  # 2 s of bytes, ten timeouts' worth
            conn.sendall(b"A")
            try:
                reply = conn.recv(64)  # doubles as the pause between bytes
                break
            except TimeoutError:
                pass
        else:
            pytest.fail("no reply while the client was still sending")
        conn.settimeout(10)
        wire = conn.makefile("rb")
        assert reply + wire.readline() == b"ERR idle-timeout\n"
        assert wire.read() == b""  # closed


def test_wire_caps_concurrent_sessions(server, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_SESSIONS", 1)
    port = server.server_address[1]
    register = f"REGISTER 2 {Prover(MIX, 2, SEED).endpoint.hex()}\n".encode()
    with socket.create_connection(("127.0.0.1", port), timeout=10) as first:
        first.sendall(register)
        with first.makefile("rb") as wire:
            assert wire.readline() == b"OK 0\n"
        # past the cap: refused and closed before any session starts
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            with conn.makefile("rb") as wire:
                assert wire.readline() == b"ERR busy\n"
                assert wire.read() == b""  # closed
    # the first session ends on its own thread, so a new client may still
    # be refused for a moment; it registers once the server counts it out
    deadline = time.monotonic() + 10
    while True:
        try:
            reply = _send_raw(port, register)
        except OSError:  # refused and reset while the client was sending
            reply = ""
        if reply == "OK 0":
            break
        assert time.monotonic() < deadline, reply
        time.sleep(0.01)


def test_wire_peer_reset_ends_the_session_quietly(server, monkeypatch, capsys):
    # a client that sends a line and then resets: the session ends on the
    # socket error, with no traceback, and is counted out
    port = server.server_address[1]
    register = f"REGISTER 2 {Prover(MIX, 2, SEED).endpoint.hex()}\n".encode()
    for _ in range(3):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.sendall(register)
    # under a cap of one, a new session registers only once all three are out
    monkeypatch.setattr(protocol, "MAX_SESSIONS", 1)
    deadline = time.monotonic() + 10
    while True:
        try:
            reply = _send_raw(port, register)
        except OSError:  # refused and reset while the client was sending
            reply = ""
        if reply == "OK 0":
            break
        assert time.monotonic() < deadline, reply
        time.sleep(0.01)
    assert "Traceback" not in capsys.readouterr().err


def _refuse_to_start(thread):
    raise RuntimeError("can't start new thread")


def test_wire_counts_out_a_session_whose_thread_never_starts(monkeypatch):
    srv = IdentificationServer(MIX, "127.0.0.1", 0)
    port = srv.server_address[1]
    register = f"REGISTER 2 {Prover(MIX, 2, SEED).endpoint.hex()}\n".encode()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            with monkeypatch.context() as patch:
                patch.setattr(threading.Thread, "start", _refuse_to_start)
                srv.handle_request()  # socketserver reports the error and closes
            assert conn.recv(64) == b""
        threading.Thread(target=srv.serve_forever, args=(POLL_INTERVAL,), daemon=True).start()
        monkeypatch.setattr(protocol, "MAX_SESSIONS", 1)
        assert _send_raw(port, register) == "OK 0"
    finally:
        srv.shutdown()
        srv.server_close()


def test_client_run_with_tamper_and_recovery(server):
    port = server.server_address[1]
    lines = []
    status = run_client(MIX, 3, SEED, "127.0.0.1", port, 8,
                        tamper=3, report=lines.append)
    assert status == 0
    assert any(line.startswith("round 3: FAIL") for line in lines)
    assert lines[-1].startswith("round 8: OK 7")


def test_client_exhaustion_diagnostic(server):
    port = server.server_address[1]
    lines = []
    status = run_client(MIX, 1, SEED, "127.0.0.1", port, 3, report=lines.append)
    assert status == 1
    assert "exhausted" in lines[-1]


def test_client_connection_failure():
    lines = []
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    status = run_client(MIX, 1, SEED, "127.0.0.1", free_port, 1, report=lines.append)
    assert status == 1
    assert "connection failed" in lines[0]


def test_client_spends_no_hash_on_a_closed_port():
    # it dials before the set-up, so an unreachable server costs no hash
    counted, calls = counting(MIX)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    lines = []
    status = run_client(counted, 10, SEED, "127.0.0.1", free_port, 1, report=lines.append)
    assert (status, calls[0]) == (1, 0)
    assert len(lines) == 1 and lines[0].startswith("connection failed: ")


def test_client_registers_after_a_setup_longer_than_the_idle_timeout(server, monkeypatch):
    # the session dialed before the set-up times out during its 0.8 s, so
    # the client registers on a new connection
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT", 0.3)

    def slow(v):
        time.sleep(0.1)
        return MIX.fn(v)

    lines = []
    status = run_client(Owf("slow", MIX.width, slow), 3, SEED, "127.0.0.1",
                        server.server_address[1], 0, report=lines.append)
    assert status == 0
    assert len(lines) == 1 and lines[0].endswith(" -> OK 0"), lines


def _wait_for_client(conn, reader):
    """Hold the connection open until the client closes it, at most 2 s."""
    conn.settimeout(2)
    try:
        reader.read()
    except OSError:  # timed out or reset
        pass


# what a fake server sends once it has read REGISTER; None closes at once
BROKEN_REPLIES = {
    "closes": (None, "connection lost: server closed the connection"),
    "no-lf": (b"A" * (MAX_LINE + 1), f"connection lost: no LF within {MAX_LINE} bytes"),
    "not-utf8": (b"\xff\xfe\n", "-> ��"),
    "silent": (b"", "connection lost: idle-timeout"),
}


@pytest.mark.parametrize("case", BROKEN_REPLIES)
def test_client_reports_a_broken_server_and_exits_1(monkeypatch, case):
    # the client reads its replies through the server's bounded reader: one
    # report line and status 1, whatever the server does, and no traceback
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT", 0.2)
    reply, want = BROKEN_REPLIES[case]
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()
                if reply is not None:
                    conn.sendall(reply)
                    _wait_for_client(conn, reader)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    lines = []
    status = run_client(MIX, 2, SEED, "127.0.0.1", listener.getsockname()[1], 1,
                        report=lines.append)
    thread.join(10)
    assert not thread.is_alive()
    assert status == 1
    assert len(lines) == 1 and lines[0].endswith(want), lines


# replies a fake server sends, one per line it reads, the last of which no
# honest exchange gets
WRONG_REPLIES = {
    "auth-not-utf8": [b"OK 0\n", b"\xff\xfe\n"],
    "auth-wrong-count": [b"OK 0\n", b"OK 5\n"],
    "register-okay": [b"OKAY\n"],
}


@pytest.mark.parametrize("case", WRONG_REPLIES)
def test_client_exits_1_at_a_reply_no_honest_exchange_gets(monkeypatch, case):
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT", 0.2)
    replies = WRONG_REPLIES[case]
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                for reply in replies:
                    reader.readline()
                    conn.sendall(reply)
                _wait_for_client(conn, reader)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    lines = []
    status = run_client(MIX, 2, SEED, "127.0.0.1", listener.getsockname()[1],
                        len(replies) - 1, report=lines.append)
    thread.join(10)
    assert not thread.is_alive()
    assert status == 1
    # every reply reported, the wrong one last, and nothing sent after it
    assert len(lines) == len(replies), lines
