"""Chained one-time identification: release preimages, verify by one hash.

The prover holds a pebbler over a length-2^k chain and releases the chain
elements one per identification round, newest preimage first, each by one
round of the pebbler's own step.  The verifier stores a single trusted
anchor -- initially the registered endpoint f^(2^k)(seed) -- and accepts a
candidate exactly when one hash maps it to the anchor, then adopts the
candidate as the new anchor.  Rejection leaves the verifier untouched.  A
prover that skips ahead is rejected: the check is deliberately single-step.

Wire format, one UTF-8 line per message, LF-terminated:

    client -> server:   REGISTER <k> <hex-endpoint>   then   AUTH <hex-value>
    server -> client:   OK <verified-count> | FAIL | ERR <reason>

A value is spelt as ``Owf.from_hex`` reads it (its docstring states the
rule).  FAIL keeps the session open; any ERR closes it.  The ERR
reasons:

    busy             MAX_SESSIONS sessions run already; no session starts
    idle-timeout     no whole line IDLE_TIMEOUT s after the server began to
                     wait for it, however its bytes came, so no client holds a thread
    line-too-long    over MAX_LINE bytes with the LF, sent on reading one byte
                     more: a client that never sends LF cannot grow the buffer
    bad-encoding     the line is not UTF-8
    empty-line       the line holds only whitespace
    bad-register     REGISTER without exactly an ASCII-digit k in 0..MAX_K and a value
    not-registered   AUTH before REGISTER, whatever follows it
    bad-auth         AUTH without exactly one value
    unknown-command  any other first word

A session ends in one place, its handler's one ``try``: on EOF, after the
ERR of its first refusal, or on any socket error (a reset, a broken pipe, a
write timeout), which ends it without a word or a traceback.  The server
counts each accepted connection in once, when it hands it on, and out once,
when socketserver shuts the request down, so the MAX_SESSIONS cap counts
exactly the sessions still open.

Both ends read each line through one reader, ``_readline``: at most
MAX_LINE + 1 bytes, whole within IDLE_TIMEOUT.  The client expects one
reply to each line, the one an honest exchange gets: ``OK 0`` to REGISTER,
``OK <n>`` to the AUTH of its n-th released value, ``FAIL`` to the value it
tampered with.  It reports each reply and exits 1 at the first other one.
A reply that never comes whole (EOF, no LF within MAX_LINE bytes,
idle-timeout, a socket error) it reports as ``connection lost`` and exits
1; it decodes replies with ``errors="replace"``.

The registration line is trusted as-is -- securing it is a deployment
concern and must happen out of band.  Sessions are independent; the server
may run them concurrently but never shares mutable session state.
"""

import contextlib
import select
import socket
import socketserver
import threading
import time

from .inplace import MAX_K, STEPPERS
from .owf import Owf, evaluate
from .pebbler import ExhaustedError, Pebbler

ENGINES = ("framework", *(f"inplace-{variant}" for variant in STEPPERS))
MAX_LINE = 1024  # bytes per wire line, LF included
IDLE_TIMEOUT = 60.0  # seconds the server waits for each whole line
MAX_SESSIONS = 64  # sessions the server runs at once, one thread each


class Prover:
    """Releases successive chain preimages, one identification round each.

    Any pebbler engine gives byte-identical releases.  ``engine="auto"``
    runs ``family`` in place (``inplace-<family>``) when an in-place stepper
    exists for it, and on the framework ``Pebbler`` otherwise.
    ``family=None`` means the engine's own family: ``optimal`` for ``auto``
    and ``framework``, ``<v>`` for ``inplace-<v>``, which refuses any other.
    A bad engine, family or order raises ``ValueError`` before any hash: the
    engine refuses an order outside 0..``MAX_K`` (``schedule.check_order``).
    ``last_hashes`` reports the work of the most recent release (at most
    the family's peak in ``checks.BOUNDS``).  Exhaustion is the engine's:
    after the 2^k-th release, its step raises ``ExhaustedError`` and
    changes nothing, so ``released`` stays 2^k.

    A Prover holds no chain value or round count of its own: its state is
    its engine's plus ``last_hashes``, and ``released`` is read off the
    engine's round r as r - 2^k.  Construction sets the engine up to round
    2^k, where it holds k+1 values, and registers f of the engine's
    ``peek()``, the free round's release; every release, the first one
    included, is one round of the engine's own step, so a state saved from
    ``pebbler`` before the first release restores to all 2^k releases.  The
    engine takes the seed through ``Owf.as_value``.
    """

    __slots__ = ("last_hashes", "pebbler", "_step", "endpoint")

    def __init__(self, owf: Owf, k: int, seed: bytes, engine: str = "auto",
                 family: str | None = None):
        if family is None:
            family = engine.removeprefix("inplace-") if engine.startswith("inplace-") else "optimal"
        if engine == "auto":
            engine = f"inplace-{family}" if family in STEPPERS else "framework"
        if engine == "framework":
            pebbler = Pebbler(owf, family, k, seed)
            pebbler.finish_setup()  # set-up rounds emit nothing: one fill
            step = Pebbler._round
        elif family in STEPPERS and engine == f"inplace-{family}":
            pebbler = STEPPERS[family](owf, k, seed)
            step = type(pebbler).step
        else:
            raise ValueError(f"engine {engine!r} cannot run family {family!r}; engines: {ENGINES}")
        self.last_hashes = 0
        self.pebbler = pebbler
        self._step = step  # the class's function, so no bound method is kept
        self.endpoint = evaluate(owf, pebbler.peek())  # f of the free round's release

    def next_value(self) -> bytes:
        """Release the next preimage: one round of the engine's own step."""
        value, self.last_hashes = self._step(self.pebbler)
        return value

    @property
    def released(self) -> int:
        """Preimages released so far, read off the engine's round r."""
        return self.pebbler.r - (1 << self.pebbler.k)


class Verifier:
    """Constant-storage verifier: remembers only the current anchor, taken,
    like each candidate it accepts, through ``Owf.as_value``."""

    def __init__(self, owf: Owf, endpoint: bytes):
        self.owf = owf
        self.anchor = owf.as_value(endpoint)
        self.verified = 0

    def check(self, candidate: bytes) -> bool:
        """Accept iff one hash of the candidate equals the anchor."""
        if len(candidate) != self.owf.width:
            return False
        if self.owf.fn(candidate) != self.anchor:
            return False
        self.anchor = self.owf.as_value(candidate)
        self.verified += 1
        return True


class Refusal(Exception):
    """The server refuses a session's next line; the one argument is the ERR reason."""


def read_digits(text: str, top: int) -> int | None:
    """The integer in 0..top that text spells in ASCII digits alone (no sign,
    ``_``, space or other script), else None; REGISTER's order and the
    CLI's integers are read through it."""
    return int(text) if text.isascii() and text.isdigit() and int(text) <= top else None


def _answer(owf: Owf, verifier: Verifier | None, raw: bytes) -> tuple[str, Verifier | None]:
    """Decide the reply to one wire line and the session's verifier after it,
    or raise ``Refusal`` for a line the server refuses.  No socket is involved."""
    if len(raw) > MAX_LINE:
        raise Refusal("line-too-long")
    try:
        parts = raw.decode("utf-8").split()
    except UnicodeDecodeError:
        raise Refusal("bad-encoding") from None
    if not parts:
        raise Refusal("empty-line")
    command, *args = parts
    if command == "REGISTER":
        endpoint = owf.from_hex(args[1]) if len(args) == 2 else None
        if endpoint is None or read_digits(args[0], MAX_K) is None:
            raise Refusal("bad-register")
        return "OK 0", Verifier(owf, endpoint)
    if command == "AUTH":
        if verifier is None:  # before the arguments: an early AUTH is named as such
            raise Refusal("not-registered")
        candidate = owf.from_hex(args[0]) if len(args) == 1 else None
        if candidate is None:
            raise Refusal("bad-auth")
        return (f"OK {verifier.verified}" if verifier.check(candidate) else "FAIL"), verifier
    raise Refusal("unknown-command")


def _readline(sock: socket.socket, rfile) -> bytes:
    """Read a line of at most MAX_LINE + 1 bytes from rfile, sock's buffered
    reader, or what came before EOF; refuse it as idle-timeout unless it is
    all in within IDLE_TIMEOUT.  Both ends of the wire read through it."""
    deadline = time.monotonic() + IDLE_TIMEOUT
    raw = b""
    try:
        while len(raw) <= MAX_LINE and not raw.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError
            sock.settimeout(left)
            data = rfile.peek()  # buffered bytes, or at most one recv
            if not data:
                break
            room = MAX_LINE + 1 - len(raw)
            end = data.find(b"\n", 0, room) + 1  # 0 when no LF is in reach
            raw += rfile.read(end or min(room, len(data)))
    except TimeoutError:
        raise Refusal("idle-timeout") from None
    sock.settimeout(IDLE_TIMEOUT)  # a reply gets the whole wait
    return raw


class _Session(socketserver.StreamRequestHandler):
    def handle(self):
        """Answer line after line.  The session ends here, and only here: on
        EOF, on its first refusal once the ERR is sent, or on any socket error."""
        verifier = None
        try:
            try:
                while raw := _readline(self.connection, self.rfile):
                    reply, verifier = _answer(self.server.owf, verifier, raw)
                    self._send(reply)
            except Refusal as exc:
                self._send(f"ERR {exc}")
        except OSError:
            pass  # a reset, a broken pipe or a write timeout: no one is left to tell

    def _send(self, text: str):
        self.wfile.write((text + "\n").encode("utf-8"))


class IdentificationServer(socketserver.ThreadingTCPServer):
    """One verifier session per connection, at most MAX_SESSIONS at once."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, owf: Owf, host: str, port: int):
        super().__init__((host, port), _Session)
        self.owf = owf
        self._sessions = 0
        self._sessions_lock = threading.Lock()

    def process_request(self, request, client_address):
        """Count the request in, then start its session thread, or answer
        ERR busy and close it when the count passes MAX_SESSIONS."""
        with self._sessions_lock:
            self._sessions += 1
            busy = self._sessions > MAX_SESSIONS
        if busy:
            try:
                request.sendall(b"ERR busy\n")
            except OSError:
                pass  # the client is gone; close all the same
            self.shutdown_request(request)
        else:
            super().process_request(request, client_address)

    def shutdown_request(self, request):
        """Count the request out and close it.  socketserver calls this once
        for every request handed to process_request: when its thread ends,
        or when process_request raises."""
        with self._sessions_lock:
            self._sessions -= 1
        super().shutdown_request(request)


def _flip_bit(v: bytes) -> bytes:
    return bytes([v[0] ^ 1]) + v[1:]


def run_client(owf: Owf, k: int, seed: bytes, host: str, port: int, rounds: int,
               tamper: int | None = None, report=print) -> int:
    """Register, then run identification rounds against a server.

    ``tamper`` flips one bit in that round's value before sending; the next
    round retries the same value honestly, demonstrating that a rejection
    leaves the verifier's anchor unchanged.  Each reply is reported, then
    compared with the one an honest exchange gets: ``OK 0`` after REGISTER,
    ``OK <released>`` after an honest AUTH, ``FAIL`` after the tampered one.
    Returns a process exit status: 0 when every reply is the expected one,
    1 at the first that is not, at a round past the chain's last, or at a
    reply that ends the session early (EOF, no LF within MAX_LINE bytes,
    idle-timeout, or a socket error), which is reported as ``connection lost``.
    It dials before the set-up, so that a server it cannot reach costs no
    hash and is reported as ``connection failed``; when the server has
    spoken or closed by the end of the set-up (an idle-timeout, say), it
    registers on a new connection.
    """
    with contextlib.ExitStack() as stack:

        def dial() -> socket.socket | None:
            """A new connection, closed with the stack; None once a failure is reported."""
            try:
                sock = socket.create_connection((host, port), timeout=IDLE_TIMEOUT)
            except OSError as exc:
                report(f"connection failed: {exc}")
                return None
            return stack.enter_context(sock)

        conn = dial()
        if conn is not None:
            prover = Prover(owf, k, seed)
            if select.select([conn], [], [], 0)[0]:  # the server answered or closed meanwhile
                conn.close()
                conn = dial()
        if conn is None:
            return 1
        wire = stack.enter_context(conn.makefile("rwb"))

        def exchange(line: str, want: str, before: str, after: str = "") -> bool:
            """Send line, report its reply between before and after, and tell
            whether the reply is want."""
            wire.write((line + "\n").encode("utf-8"))
            wire.flush()
            raw = _readline(conn, wire)
            if not raw.endswith(b"\n"):
                raise ConnectionError(f"no LF within {MAX_LINE} bytes" if raw
                                      else "server closed the connection")
            reply = raw.decode("utf-8", errors="replace").strip()
            report(before + reply + after)
            return reply == want

        try:
            if not exchange(f"REGISTER {k} {prover.endpoint.hex()}", "OK 0",
                            f"registered k={k} endpoint={prover.endpoint.hex()} -> "):
                return 1
            held: bytes | None = None  # released, not yet accepted
            for j in range(1, rounds + 1):
                if held is None:
                    held = prover.next_value()
                if j == tamper:
                    sent, want = _flip_bit(held), "FAIL"  # held is resent next round
                else:
                    sent, want, held = held, f"OK {prover.released}", None
                if not exchange(f"AUTH {sent.hex()}", want, f"round {j}: ",
                                f" hashes={prover.last_hashes}"):
                    return 1
        except ExhaustedError as exc:
            report(f"round {j}: {exc}")
            return 1
        except (OSError, Refusal) as exc:
            report(f"connection lost: {exc}")
            return 1
    return 0
