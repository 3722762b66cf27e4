"""The identify workload: provers answering a verifier over loopback TCP.

The package's ``IdentificationServer`` runs in its own process (server.py).
This process is the load generator: it holds ``connections`` closed-loop
connections, multiplexed with ``selectors`` on one thread, so a connection
sends its next line only after the reply to its previous one.  Connections
run sessions back to back.  A session constructs a ``Prover`` over a fresh
chain, connects and sends ``REGISTER`` (together one ``setup_s`` sample),
then releases every chain element with an ``AUTH`` exchange.  In each block
of 64 elements one, at a position drawn from the seed, is first sent with a
bit flipped; the server must answer ``FAIL`` and the element is then resent
honestly.  A round is one released element: from ``next_value()`` to the
``OK`` for it, including any rejected attempt.

The tamper positions are drawn once per run, so a chain position is
tampered in every session or in none.  Each session's chain seed comes from
a generator keyed by the run's seed, the connection and the session's
number on it, so it does not depend on how the connections interleave.
"""

import random
import selectors
import socket
import subprocess
import sys
import tracemalloc
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from measure import KIB, Tracer, chain_endpoint, chain_failures, md5, pct

TAMPER_EVERY = 64
WINDOW = 1024  # completed rounds per throughput window
IO_TIMEOUT_S = 10.0
HERE = Path(__file__).resolve().parent


@contextmanager
def server_process(owf_name: str = "md5"):
    """Start server.py, yield its (host, port), and stop it on exit."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), owf_name],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=HERE.parent,
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=60):
                raise RuntimeError("identification server did not start")
        line = proc.stdout.readline()
        if not line.strip().isdigit():
            raise RuntimeError("identification server did not report a port")
        yield ("127.0.0.1", int(line))
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _flip_bit(v: bytes) -> bytes:
    return bytes([v[0] ^ 1]) + v[1:]


class _Session:
    __slots__ = ("id", "conn", "seed", "prover", "sock", "buf", "value",
                 "expect", "accepted", "values", "prev", "t_round", "round_span",
                 "exchange_span")

    def __init__(self, sid: int, conn: int, seed: bytes):
        self.id = sid
        self.conn = conn
        self.seed = seed
        self.prover = self.sock = self.value = self.prev = None
        self.buf = b""
        self.expect = ""
        self.accepted = 0
        self.values: list[bytes] = []
        self.t_round = 0
        self.round_span = self.exchange_span = -1


class LoadGenerator:
    """Closed-loop identification sessions against one server address.

    ``make_prover(seed)`` builds each session's prover.  New sessions start
    on a connection while the deadline has not passed and, when given, fewer
    than ``sessions_per_conn`` have run on it.  With a ``tracer`` every
    set-up, round, release and exchange is recorded as a span.  Timings and
    accepted values are recorded, and the values checked when the run ends;
    without ``record`` (the memory pass, whose peak must not include the
    benchmark's own records) each value is checked as it is accepted and
    nothing is kept.
    """

    def __init__(self, addr, k: int, make_prover, connections: int, key: str,
                 seconds: float, sessions_per_conn: int | None = None,
                 tracer: Tracer | None = None, after_setup=None, record: bool = True):
        self.addr = addr
        self.n = 1 << k
        self.k = k
        self.make_prover = make_prover
        self.connections = connections
        self.key = key
        self.deadline = perf_counter_ns() + int(seconds * 1e9)
        self.sessions_per_conn = sessions_per_conn
        self.tracer = tracer
        self.after_setup = after_setup
        self.record = record
        self.sel = selectors.DefaultSelector()
        self.started = [0] * connections
        self.done: list[_Session] = []
        self.setup_ns = array("q")
        rng = random.Random(f"{key}/tamper")
        self.tamper = {b + rng.randrange(min(TAMPER_EVERY, self.n))
                       for b in range(0, self.n, TAMPER_EVERY)}
        self.round_ns = array("q")
        self.round_pos = array("l")
        self.window = min(WINDOW, self.n)
        self.window_walls: list[int] = []
        self._mark = 0
        self.attempted = self.failed = 0
        self.tampered = self.fail_replies = self.err_replies = 0
        self.hashes_max = 0
        self.wall_ns = 0

    # -- session life cycle -------------------------------------------------

    def _session_seed(self, conn: int, number: int) -> bytes:
        return random.Random(f"{self.key}/conn{conn}/session{number}").randbytes(16)

    def _may_start(self, conn: int) -> bool:
        if self.sessions_per_conn is not None and self.started[conn] >= self.sessions_per_conn:
            return False
        return perf_counter_ns() < self.deadline

    def _open(self, conn: int) -> None:
        number = self.started[conn]
        self.started[conn] += 1
        seed = self._session_seed(conn, number)
        s = _Session(conn * 1_000_000 + number, conn, seed)
        if not self.record:
            s.prev = chain_endpoint(seed, self.n)
        tr = self.tracer
        t0 = perf_counter_ns()
        if tr:
            root = tr.open("identify.setup", session=s.id)
            span = tr.open("protocol.prover_init", parent=root, session=s.id)
        s.prover = self.make_prover(seed)
        if tr:
            tr.close(span)
            span = tr.open("protocol.register", parent=root, session=s.id)
        try:
            s.sock = socket.create_connection(self.addr, timeout=IO_TIMEOUT_S)
            s.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.sock.sendall(f"REGISTER {self.k} {s.prover.endpoint.hex()}\n".encode())
            reply = self._read_line_blocking(s)
        except OSError:
            reply = None
        if tr:
            tr.close(span)
            tr.close(root)
        if reply is None:
            # counted as failed, and the connection starts no further sessions
            self.attempted += 1
            self.failed += 1
            if s.sock is not None:
                s.sock.close()
            return
        if self.record:
            self.setup_ns.append(perf_counter_ns() - t0)
        self.attempted += 1
        if self.after_setup:
            self.after_setup()
        if reply != "OK 0":
            self._reject(s, reply)
            return
        s.sock.setblocking(False)
        self.sel.register(s.sock, selectors.EVENT_READ, s)
        self._start_round(s)

    def _read_line_blocking(self, s: _Session) -> str:
        while b"\n" not in s.buf:
            data = s.sock.recv(4096)
            if not data:
                return ""
            s.buf += data
        line, s.buf = s.buf.split(b"\n", 1)
        return line.decode("utf-8", "replace")

    def _close(self, s: _Session) -> None:
        try:
            self.sel.unregister(s.sock)
        except (KeyError, ValueError):
            pass
        s.sock.close()
        if not self.record and s.accepted == self.n:
            self.failed += s.prev != s.seed
        self.done.append(s)
        if self._may_start(s.conn):
            self._open(s.conn)

    def _reject(self, s: _Session, reply: str) -> None:
        """An unexpected reply or a lost connection ends the session as failed."""
        self.failed += 1
        if reply.startswith("ERR"):
            self.err_replies += 1
        elif reply == "FAIL":
            self.fail_replies += 1
        self._close(s)

    # -- rounds --------------------------------------------------------------

    def _start_round(self, s: _Session) -> None:
        tr = self.tracer
        s.t_round = perf_counter_ns()
        if tr:
            s.round_span = tr.open("identify.round", session=s.id)
            span = tr.open("protocol.next_value", parent=s.round_span, session=s.id)
        s.value = s.prover.next_value()
        if tr:
            tr.close(span)
        if s.prover.last_hashes > self.hashes_max:
            self.hashes_max = s.prover.last_hashes
        if s.prover.released - 1 in self.tamper:
            self.tampered += 1
            self._send(s, _flip_bit(s.value), "FAIL")
        else:
            self._send(s, s.value, f"OK {s.accepted + 1}")

    def _send(self, s: _Session, value: bytes, expect: str) -> None:
        s.expect = expect
        if self.tracer:
            s.exchange_span = self.tracer.open("protocol.exchange", parent=s.round_span,
                                               session=s.id)
        try:
            s.sock.sendall(b"AUTH " + value.hex().encode() + b"\n")
        except OSError:
            self.attempted += 1
            self._reject(s, "")

    def _on_reply(self, s: _Session, reply: str) -> None:
        now = perf_counter_ns()
        if self.tracer:
            self.tracer.close(s.exchange_span)
        self.attempted += 1
        if reply != s.expect:
            self._reject(s, reply)
            return
        if reply == "FAIL":
            self.fail_replies += 1
            self._send(s, s.value, f"OK {s.accepted + 1}")
            return
        s.accepted += 1
        if self.tracer:
            self.tracer.close(s.round_span)
        if self.record:
            s.values.append(s.value)
            self.round_ns.append(now - s.t_round)
            self.round_pos.append(s.accepted - 1)
            if len(self.round_ns) % self.window == 0:
                self.window_walls.append(now - self._mark)
                self._mark = now
        else:
            self.failed += md5(s.value) != s.prev
            s.prev = s.value
        if s.prover.released == self.n:
            self._close(s)
        else:
            self._start_round(s)

    def _on_readable(self, s: _Session) -> None:
        try:
            data = s.sock.recv(4096)
        except OSError:
            data = b""
        if not data:
            self._reject(s, "")
            return
        s.buf += data
        while b"\n" in s.buf and s.sock.fileno() >= 0:
            line, s.buf = s.buf.split(b"\n", 1)
            self._on_reply(s, line.decode("utf-8", "replace"))

    def window_rate(self) -> float:
        """Rounds per second of the window at the 90th percentile of throughput.

        A shared host can run 1.7x slower for stretches of milliseconds to
        seconds; the upper windows are the ones it left alone, which makes
        this the rate the connections sustain.
        """
        rates = sorted(self.window * 1e9 / t for t in self.window_walls)
        return pct(rates, 90)

    def run(self) -> "LoadGenerator":
        """Drive all connections to the end, then check every released value."""
        begin = self._mark = perf_counter_ns()
        try:
            for conn in range(self.connections):
                if self._may_start(conn):
                    self._open(conn)
            while self.sel.get_map():
                events = self.sel.select(timeout=IO_TIMEOUT_S)
                if not events:  # a reply is overdue: fail every open session
                    for key in list(self.sel.get_map().values()):
                        self._reject(key.data, "")
                    continue
                for key, _ in events:
                    self._on_readable(key.data)
        finally:
            self.wall_ns = perf_counter_ns() - begin
            for key in list(self.sel.get_map().values()):
                key.fileobj.close()
            self.sel.close()
        if self.record:
            for s in self.done:
                self.failed += chain_failures(s.values, s.seed, self.n)
        return self


def setup_pass(addr, k: int, make_prover, seeds: list[bytes]) -> dict:
    """ns of ``Prover`` construction, connect and REGISTER reply per chain
    seed, once each, alone on the wire."""
    times = []
    failed = 0
    for seed in seeds:
        t0 = perf_counter_ns()
        prover = make_prover(seed)
        try:
            with socket.create_connection(addr, timeout=IO_TIMEOUT_S) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(f"REGISTER {k} {prover.endpoint.hex()}\n".encode())
                with sock.makefile("rb") as wire:
                    reply = wire.readline()
        except OSError:
            reply = b""
        times.append(perf_counter_ns() - t0)
        failed += reply != b"OK 0\n"
    return {"ns": times, "attempted": len(seeds), "failed": failed}


def memory_stage(addr, k: int, make_prover, key: str) -> dict:
    """tracemalloc peaks of one session on one connection, split at REGISTER."""
    peaks = {}

    def after_setup():
        peaks["setup"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()

    # The first connection of a process imports modules lazily, which would
    # add a little over 100 KiB, varying by a few bytes, to the set-up peak.
    socket.create_connection(addr, timeout=IO_TIMEOUT_S).close()
    # built untraced: its tamper set is the benchmark's, and its size in
    # bytes depends on the seed (positions up to 256 are cached ints)
    gen = LoadGenerator(addr, k, make_prover, 1, key, 3600, sessions_per_conn=1,
                        after_setup=after_setup, record=False)
    tracemalloc.start()
    try:
        gen.run()
        peaks["reversal"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "peak_kib_setup": peaks["setup"] / KIB,
        "peak_kib_reversal": peaks["reversal"] / KIB,
        "attempted": gen.attempted,
        "failed": gen.failed,
    }
